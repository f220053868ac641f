// Package quake defines the synthetic San Fernando scenario family —
// sf10, sf5, sf2, sf1 — and the experiment drivers that regenerate the
// paper's tables and figures from them. Each scenario meshes the same
// 50 km × 50 km × 10 km basin model (package material), grading element
// size by the local seismic wavelength for the scenario's wave period,
// with the points-per-wavelength knob calibrated so the mesh sizes
// track Figure 2 of the paper.
package quake

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/octree"
)

// Scenario describes one member of the Quake application family.
type Scenario struct {
	Name   string
	Period float64 // period (s) of the highest-frequency resolved wave
	// PPW is the points-per-wavelength resolution knob, calibrated per
	// scenario so node counts approximate the paper's meshes.
	PPW      float64
	MaxDepth int
	// Paper mesh sizes (Figure 2) for comparison in reports.
	PaperNodes, PaperElems, PaperEdges int64
}

// The calibrated family. PPW values were fitted once (see
// TestCalibrationTracksPaperSizes) so that generated node counts land
// within a factor of ~1.5 of Figure 2; the factor-of-eight growth per
// halved period then follows from the sizing rule itself.
var (
	SF10 = Scenario{Name: "sf10", Period: 10, PPW: 2.0, MaxDepth: 6,
		PaperNodes: 7294, PaperElems: 35025, PaperEdges: 44922}
	SF5 = Scenario{Name: "sf5", Period: 5, PPW: 2.0, MaxDepth: 7,
		PaperNodes: 30169, PaperElems: 151239, PaperEdges: 190377}
	SF2 = Scenario{Name: "sf2", Period: 2, PPW: 2.5, MaxDepth: 9,
		PaperNodes: 378747, PaperElems: 2067739, PaperEdges: 2509064}
	SF1 = Scenario{Name: "sf1", Period: 1, PPW: 2.5, MaxDepth: 10,
		PaperNodes: 2461694, PaperElems: 13980162, PaperEdges: 16684112}
	// SF1Small ("sf1s") is a reduced-scale stand-in for sf1 (~0.35× its
	// node count), used when generating the full 2.4M-node mesh is too
	// expensive; reports label it distinctly and extrapolate with the
	// O(n) / O(n^(2/3)) scaling laws where sf1 itself is unavailable.
	SF1Small = Scenario{Name: "sf1s", Period: 1.26, PPW: 2.0, MaxDepth: 10,
		PaperNodes: 2461694, PaperElems: 13980162, PaperEdges: 16684112}
)

// ByName returns the named scenario.
func ByName(name string) (Scenario, error) {
	for _, s := range []Scenario{SF10, SF5, SF2, SF1, SF1Small} {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("quake: unknown scenario %q", name)
}

// Domain returns the octree configuration of the San Fernando box:
// a 5×5×1 grid of 10-km root cubes spanning 50×50×10 km.
func Domain(maxDepth int) octree.Config {
	return octree.Config{
		Origin:   geom.V(0, 0, 0),
		CubeSize: 10,
		Nx:       5, Ny: 5, Nz: 1,
		MaxDepth: maxDepth,
	}
}

// Material returns the material model shared by the family.
func Material() *material.Model { return material.SanFernando() }

// Build generates the scenario's mesh (uncached).
func (s Scenario) Build() (*mesh.Mesh, error) {
	if s.PPW <= 0 || s.Period <= 0 {
		return nil, fmt.Errorf("quake: scenario %q not configured", s.Name)
	}
	mat := Material()
	tr, err := octree.Build(Domain(s.MaxDepth), mat.Sizing(s.Period, s.PPW))
	if err != nil {
		return nil, err
	}
	return mesh.FromTree(tr)
}

var meshCache sync.Map // name -> *mesh.Mesh

// Mesh returns the scenario's mesh, generating it on first use and
// caching it for the life of the process (the benchmark harness touches
// the same meshes many times). The returned mesh is shared: treat it as
// immutable. Callers that mutate geometry (Smooth, Permute-and-modify)
// must generate a private copy with Build instead.
func (s Scenario) Mesh() (*mesh.Mesh, error) {
	if v, ok := meshCache.Load(s.Name); ok {
		return v.(*mesh.Mesh), nil
	}
	m, err := s.Build()
	if err != nil {
		return nil, err
	}
	meshCache.Store(s.Name, m)
	return m, nil
}

// PECounts is the subdomain sweep of the paper's Figures 6 and 7.
var PECounts = []int{4, 8, 16, 32, 64, 128}
