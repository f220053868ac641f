// Command quakegen generates one synthetic San Fernando mesh, prints its
// size against the paper's Figure 2, and with -vtk writes it as a
// legacy-VTK file with the local shear velocity as point data, for
// ParaView. The Figure 2 table of the whole family is quakerepro's
// fig2_mesh_sizes (-scenarios sf10,sf5,sf2,sf1 for the full-scale sf1).
//
// Usage:
//
//	quakegen -scenario sf10
//	quakegen -scenario sf5 -vtk sf5.vtk
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/mesh"
	"repro/internal/quake"
	"repro/internal/report"
)

func main() {
	scenario := flag.String("scenario", "", "the scenario to generate (sf10|sf5|sf2|sf1|sf1s)")
	vtk := flag.String("vtk", "", "write the mesh in legacy VTK format, with the local shear velocity as point data")
	flag.Parse()

	if err := run(*scenario, *vtk); err != nil {
		fmt.Fprintln(os.Stderr, "quakegen:", err)
		os.Exit(1)
	}
}

func run(scenario, vtk string) error {
	if scenario == "" {
		return fmt.Errorf("-scenario is required (the family's size table is quakerepro -only fig2_mesh_sizes)")
	}
	s, err := quake.ByName(scenario)
	if err != nil {
		return err
	}
	m, err := s.Mesh()
	if err != nil {
		return err
	}
	printStats(s, m)
	if vtk == "" {
		return nil
	}
	mat := quake.Material()
	vs := make([]float64, m.NumNodes())
	for i, p := range m.Coords {
		vs[i] = mat.ShearVelocity(p)
	}
	f, err := os.Create(vtk)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.WriteVTK(f, s.Name+" mesh", mesh.VTKField{Name: "Vs", Data: vs}); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", vtk)
	return nil
}

func printStats(s quake.Scenario, m *mesh.Mesh) {
	st := m.ComputeStats()
	fmt.Printf("%s: period %gs, %s nodes (paper %s), %s elements, %s edges, avg degree %.1f, %.2f KB/node\n",
		s.Name, s.Period,
		report.Int(int64(st.Nodes)), report.Int(s.PaperNodes),
		report.Int(int64(st.Elems)), report.Int(int64(st.Edges)),
		st.AvgDegree, st.BytesPerNode/1024)
}
