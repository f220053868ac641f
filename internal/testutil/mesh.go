package testutil

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/octree"
)

// RandomMesh builds a small graded tetrahedral mesh for differential
// tests: a 1–2 × 1–2 × 1 block of unit cubes refined toward a random
// focus, with the soft basin (the stiffness contrast that makes CG work
// for its answer) centred there. The mesh is a pure function of the
// values drawn from rng.
func RandomMesh(t testing.TB, rng *rand.Rand) (*mesh.Mesh, *material.Model) {
	t.Helper()
	cfg := octree.Config{Origin: geom.V(0, 0, 0), CubeSize: 1, Nx: 1 + rng.Intn(2), Ny: 1 + rng.Intn(2), Nz: 1, MaxDepth: 3}
	focus := geom.V(rng.Float64()*float64(cfg.Nx), rng.Float64()*float64(cfg.Ny), 0.3*rng.Float64())
	floor, slope := 0.13+0.05*rng.Float64(), 0.8+0.5*rng.Float64()
	tr, err := octree.Build(cfg, func(p geom.Vec3) float64 { return math.Max(floor, slope*p.Dist(focus)) })
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.FromTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	mat := material.SanFernando()
	mat.BasinCenter = focus
	mat.BasinSemi = geom.V(0.5+0.4*rng.Float64(), 0.5+0.4*rng.Float64(), 0.3+0.3*rng.Float64())
	return m, mat
}

// UniformMesh builds an ungraded nx × ny × nz block of unit cubes refined
// depth levels everywhere: a regular lattice, so many element centroids
// share a coordinate — the input on which a geometric partitioner's
// tie-breaking decides the result.
func UniformMesh(t testing.TB, nx, ny, nz, depth int) *mesh.Mesh {
	t.Helper()
	cfg := octree.Config{Origin: geom.V(0, 0, 0), CubeSize: 1, Nx: nx, Ny: ny, Nz: nz, MaxDepth: depth}
	tr, err := octree.Build(cfg, func(geom.Vec3) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.FromTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
