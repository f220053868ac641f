package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/testutil"
)

// bisectRef is the bisection as it stood before the keyed, concurrent
// rewrite, kept verbatim as the reference the differential test compares
// against: serial, one sort.Slice per level recomputing two projections
// per comparison.
func bisectRef(cents []geom.Vec3, idx []int32, base, parts int, out []int32, inertial bool) {
	if parts == 1 {
		for _, e := range idx {
			out[e] = int32(base)
		}
		return
	}
	left := parts / 2
	// Elements going to the left side, proportional to PE counts.
	nLeft := int(int64(len(idx)) * int64(left) / int64(parts))
	if nLeft < 1 {
		nLeft = 1
	}
	if nLeft > len(idx)-1 {
		nLeft = len(idx) - 1
	}

	var axisDir geom.Vec3
	if inertial {
		axisDir = principalAxis(cents, idx)
	} else {
		// Longest axis of the centroid bounding box.
		box := geom.Box{Lo: cents[idx[0]], Hi: cents[idx[0]]}
		for _, e := range idx {
			box.Lo = geom.Min(box.Lo, cents[e])
			box.Hi = geom.Max(box.Hi, cents[e])
		}
		axisDir = geom.Vec3{}.WithComponent(box.LongestAxis(), 1)
	}
	// Partial selection: order by projection onto the axis. Sorting is
	// O(n log n) but keeps the code simple and deterministic; ties are
	// broken by element index for reproducibility.
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := cents[idx[a]].Dot(axisDir), cents[idx[b]].Dot(axisDir)
		if pa != pb {
			return pa < pb
		}
		return idx[a] < idx[b]
	})
	bisectRef(cents, idx[:nLeft], base, left, out, inertial)
	bisectRef(cents, idx[nLeft:], base+left, parts-left, out, inertial)
}

func partitionRef(m *mesh.Mesh, p int, inertial bool) []int32 {
	ne := m.NumElems()
	cents := make([]geom.Vec3, ne)
	idx := make([]int32, ne)
	for e := range cents {
		cents[e] = m.Centroid(e)
		idx[e] = int32(e)
	}
	out := make([]int32, ne)
	bisectRef(cents, idx, 0, p, out, inertial)
	return out
}

// tiedProjections counts the elements whose centroid x coordinate equals
// another element's: the inputs whose order only the tie rule decides.
func tiedProjections(m *mesh.Mesh) int {
	count := map[float64]int{}
	for e := 0; e < m.NumElems(); e++ {
		count[m.Centroid(e).X]++
	}
	tied := 0
	for _, c := range count {
		if c > 1 {
			tied += c
		}
	}
	return tied
}

// TestBisectionMatchesReference pins the keyed, concurrent bisection to
// the serial sort.Slice one, element for element: over seeded random
// graded meshes, a uniform lattice whose centroids tie on every axis, and
// a lattice large enough that the halves do recurse on goroutines — for
// both geometric methods, power-of-two and odd part counts, and one, two
// and four scheduler threads.
func TestBisectionMatchesReference(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(20260927))
	type tc struct {
		name string
		m    *mesh.Mesh
	}
	var cases []tc
	for i := 0; i < 4; i++ {
		m, _ := testutil.RandomMesh(t, rng)
		cases = append(cases, tc{fmt.Sprintf("random%d", i), m})
	}
	lattice := testutil.UniformMesh(t, 2, 1, 1, 2)
	if tied := tiedProjections(lattice); tied < lattice.NumElems()/2 {
		t.Fatalf("lattice has %d tied centroid projections of %d elements; it is there for the ties", tied, lattice.NumElems())
	}
	big := testutil.UniformMesh(t, 2, 2, 1, 3)
	if big.NumElems() < 2*bisectSpawnMin {
		t.Fatalf("large lattice has %d elements; below %d no half recurses concurrently", big.NumElems(), 2*bisectSpawnMin)
	}
	cases = append(cases, tc{"lattice", lattice}, tc{"lattice-large", big})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		for _, method := range []Method{RCB, Inertial} {
			for _, p := range []int{1, 2, 3, 5, 8, 16} {
				want := partitionRef(c.m, p, method == Inertial)
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					pt, err := PartitionMesh(c.m, p, method, 1)
					if err != nil {
						t.Fatalf("%s/%v/p%d: %v", c.name, method, p, err)
					}
					for e, pe := range pt.ElemPE {
						if pe != want[e] {
							t.Fatalf("%s/%v/p%d/procs%d: element %d on PE %d, reference %d", c.name, method, p, procs, e, pe, want[e])
						}
					}
				}
			}
		}
	}
}
