package mesh

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// twoTets builds a tiny hand-made mesh: two tetrahedra sharing a face.
func twoTets() *Mesh {
	return &Mesh{
		Coords: []geom.Vec3{
			geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0),
			geom.V(0, 0, 1), geom.V(1, 1, 1),
		},
		Tets: [][4]int32{
			{0, 1, 2, 3},
			{1, 2, 3, 4}, // shares face (1,2,3)
		},
	}
}

func TestEdgesUniqueSorted(t *testing.T) {
	m := twoTets()
	edges := m.Edges()
	// Nodes {0..4}; edges: all pairs of {0,1,2,3} (6) plus 4-{1,2,3} (3).
	want := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
	}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
	if m.NumEdges() != 9 {
		t.Errorf("NumEdges = %d", m.NumEdges())
	}
}

func TestEdgesCached(t *testing.T) {
	m := twoTets()
	a := m.Edges()
	b := m.Edges()
	if &a[0] != &b[0] {
		t.Error("Edges not cached")
	}
}

func TestAdjacency(t *testing.T) {
	m := twoTets()
	adj := m.Adjacency()
	wantDeg := []int{3, 4, 4, 4, 3}
	for i, w := range wantDeg {
		if got := adj.Degree(i); got != w {
			t.Errorf("degree(%d) = %d, want %d", i, got, w)
		}
	}
	// Neighbor lists sorted and symmetric.
	for i := 0; i < m.NumNodes(); i++ {
		ns := adj.Neighbors(i)
		for k, nb := range ns {
			if k > 0 && ns[k-1] >= nb {
				t.Errorf("neighbors of %d not strictly sorted: %v", i, ns)
			}
			found := false
			for _, back := range adj.Neighbors(int(nb)) {
				if back == int32(i) {
					found = true
				}
			}
			if !found {
				t.Errorf("adjacency not symmetric: %d -> %d", i, nb)
			}
		}
	}
}

func TestCentroidVolume(t *testing.T) {
	m := twoTets()
	if got := m.Volume(0); math.Abs(got-1.0/6) > 1e-15 {
		t.Errorf("Volume(0) = %g", got)
	}
	want := geom.V(0.25, 0.25, 0.25)
	if got := m.Centroid(0); got.Dist(want) > 1e-15 {
		t.Errorf("Centroid(0) = %v", got)
	}
}

func TestValidateCatchesBadMesh(t *testing.T) {
	m := twoTets()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid mesh rejected: %v", err)
	}
	bad := twoTets()
	bad.Tets[0][1] = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range node accepted")
	}
	flipped := twoTets()
	flipped.Tets[0] = [4]int32{1, 0, 2, 3} // negative volume
	if err := flipped.Validate(); err == nil {
		t.Error("negative-volume element accepted")
	}
}

func TestStatsEmptyMesh(t *testing.T) {
	m := &Mesh{}
	s := m.ComputeStats()
	if s.Nodes != 0 || s.Elems != 0 || s.AvgDegree != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}
