package regress

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/solver"
)

// numericFingerprints pins the numerics downstream of the schedule on
// sf10, the values every backend of the solver and the integrator must
// reproduce bit for bit however their loops are arranged: the assembled
// global stiffness and its stability bounds, every per-PE operator of a
// p = 4 RCB Dist, the seismograms and peak displacement of the
// sequential and the distributed integrator (absorbers, damping, an
// oblique source), and serial and resident CG on the canonical
// two-point right-hand side, plain and point-Jacobi.
func numericFingerprints(t *testing.T, got map[string]uint64) {
	t.Helper()
	const p, sigma, tol = 4, 20.0, 1e-8
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	mat := quake.Material()
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	got["numerics/sf10/assemble/K"] = Vector(sys.K.Val)
	got["numerics/sf10/assemble/maxvp"] = math.Float64bits(sys.MaxVp)
	got["numerics/sf10/assemble/minedge"] = math.Float64bits(sys.MinEdge)

	pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := par.NewDist(m, mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i, k := range d.K {
		got[fmt.Sprintf("numerics/sf10/p4/rcb/K%d/val", i)] = Vector(k.Val)
		got[fmt.Sprintf("numerics/sf10/p4/rcb/K%d/diag", i)] = Vector(k.Diag)
	}

	ab, err := fem.BuildAbsorbingDampers(sys, mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fem.SimConfig{
		Dt:    sys.StableDt(0.5),
		Steps: 120,
		Source: fem.PointSource{
			Location:  geom.V(25, 25, 6),
			Direction: geom.V(1, -2, 3),
			Amplitude: 1e3,
			PeakFreq:  0.1,
			Delay:     12,
		},
		Damping:   0.01,
		Absorbers: ab,
		Receivers: []int32{sys.NearestNode(geom.V(25, 25, 0)), sys.NearestNode(geom.V(10, 40, 5))},
	}
	sims := map[string]func() (*fem.SimResult, error){
		"serial": func() (*fem.SimResult, error) { return sys.Run(cfg) },
		"p4": func() (*fem.SimResult, error) {
			s, err := par.NewDistSim(d, sys.MassNode, ab)
			if err != nil {
				return nil, err
			}
			res, err := s.Run(m.Coords, cfg)
			if err != nil {
				return nil, err
			}
			return &res.SimResult, nil
		},
	}
	for name, run := range sims {
		res, err := run()
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		for r, s := range res.Seismograms {
			got[fmt.Sprintf("numerics/sf10/run/%s/seismogram%d", name, r)] = Vector(s)
		}
		got["numerics/sf10/run/"+name+"/maxdisp"] = math.Float64bits(res.MaxDisplacement)
	}

	n := 3 * m.NumNodes()
	b := make([]float64, n)
	b[2], b[n-1] = 50, -20
	global := solver.Shifted{K: sys.K, MassNode: sys.MassNode, Sigma: sigma}
	jacobi := make([]float64, n)
	for i, v := range global.Diagonal() {
		jacobi[i] = 1 / v
	}
	ops := map[string]solver.Operator{
		"serial": global,
		"p4":     par.Operator{D: d, Shift: sigma, MassNode: sys.MassNode},
	}
	for name, op := range ops {
		for prec, pc := range map[string][]float64{"plain": nil, "jacobi": jacobi} {
			x := make([]float64, n)
			res, err := solver.CG(op, b, x, solver.Config{MaxIter: 4 * n, Tol: tol, Precondition: pc})
			if err != nil || !res.Converged {
				t.Fatalf("%s %s CG: %+v, err=%v", name, prec, res, err)
			}
			key := "numerics/sf10/cg/" + name + "/" + prec
			got[key+"/x"] = Vector(x)
			got[key+"/iterations"] = uint64(res.Iterations)
			got[key+"/residual"] = math.Float64bits(res.Residual)
			got[key+"/true_residual"] = math.Float64bits(res.TrueResidual)
		}
	}
}
