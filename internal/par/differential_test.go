package par

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/testutil"
)

// newDistRef is NewDist's construction as it stood before the per-PE
// matrices were assembled by concurrent workers over dense scratch, kept
// verbatim as the reference the differential test compares against: one
// goroutine, PEs in order, a global-to-local hash map per PE, a hash set
// of seen edges. Each full matrix is folded to the symmetric storage a
// Dist holds once it is complete. It stops short of the PE runtime.
func newDistRef(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, pr *partition.Profile) (*Dist, error) {
	if pr.P != pt.P {
		return nil, fmt.Errorf("par: profile has %d PEs, partition %d", pr.P, pt.P)
	}
	p := pt.P
	d := &Dist{
		P:           p,
		GlobalNodes: m.NumNodes(),
		Nodes:       pr.NodesOnPE,
		K:           make([]*sparse.SymBCSR, p),
		Neighbors:   make([][]int32, p),
		Shared:      make([][][]int32, p),
		Owner:       make([]int32, m.NumNodes()),
	}
	for v, pes := range pr.NodePEs {
		if len(pes) == 0 {
			return nil, fmt.Errorf("par: node %d resides nowhere", v)
		}
		d.Owner[v] = pes[0]
	}

	// Global-to-local maps.
	g2l := make([]map[int32]int32, p)
	for i := 0; i < p; i++ {
		g2l[i] = make(map[int32]int32, len(d.Nodes[i]))
		for l, g := range d.Nodes[i] {
			g2l[i][g] = int32(l)
		}
	}

	// Elements per PE, then local structure and assembly.
	elems := make([][]int32, p)
	for e, pe := range pt.ElemPE {
		elems[pe] = append(elems[pe], int32(e))
	}
	for i := 0; i < p; i++ {
		// Local edge set from this PE's elements.
		seen := make(map[uint64]struct{})
		var edges [][2]int32
		for _, e := range elems[i] {
			t := m.Tets[e]
			for a := 0; a < 4; a++ {
				for b := a + 1; b < 4; b++ {
					la, lb := g2l[i][t[a]], g2l[i][t[b]]
					if la > lb {
						la, lb = lb, la
					}
					key := uint64(la)<<32 | uint64(lb)
					if _, ok := seen[key]; ok {
						continue
					}
					seen[key] = struct{}{}
					edges = append(edges, [2]int32{la, lb})
				}
			}
		}
		k := sparse.NewBCSRStructure(len(d.Nodes[i]), edges)
		for _, e := range elems[i] {
			t := m.Tets[e]
			var v [4]geom.Vec3
			for a := 0; a < 4; a++ {
				v[a] = m.Coords[t[a]]
			}
			lambda, mu, _ := mat.Elastic(m.Centroid(int(e)))
			blocks, _, ok := fem.ElementStiffness(v, lambda, mu)
			if !ok {
				return nil, fmt.Errorf("par: degenerate element %d", e)
			}
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					k.AddBlock(g2l[i][t[a]], g2l[i][t[b]], &blocks[a][b])
				}
			}
		}
		var err error
		if d.K[i], err = sparse.NewSymFromBCSR(k); err != nil {
			return nil, err
		}
	}

	// Exchange lists from the residency sets: for every node on 2+ PEs,
	// record it under each unordered PE pair. Node ids ascend during the
	// scan, so each per-pair list is automatically in global-id order.
	type pair struct{ a, b int32 }
	sharedByPair := make(map[pair][]int32)
	for v, pes := range pr.NodePEs {
		for x := 0; x < len(pes); x++ {
			for y := x + 1; y < len(pes); y++ {
				pr := pair{pes[x], pes[y]}
				sharedByPair[pr] = append(sharedByPair[pr], int32(v))
			}
		}
	}
	nbrSet := make([]map[int32][]int32, p) // neighbor -> shared globals
	for i := range nbrSet {
		nbrSet[i] = make(map[int32][]int32)
	}
	for pr, nodes := range sharedByPair {
		nbrSet[pr.a][pr.b] = nodes
		nbrSet[pr.b][pr.a] = nodes
	}
	for i := 0; i < p; i++ {
		for nbr := range nbrSet[i] {
			d.Neighbors[i] = append(d.Neighbors[i], nbr)
		}
		sort.Slice(d.Neighbors[i], func(a, b int) bool { return d.Neighbors[i][a] < d.Neighbors[i][b] })
		d.Shared[i] = make([][]int32, len(d.Neighbors[i]))
		for k, nbr := range d.Neighbors[i] {
			globals := nbrSet[i][nbr]
			locals := make([]int32, len(globals))
			for s, g := range globals {
				locals[s] = g2l[i][g]
			}
			d.Shared[i][k] = locals
		}
	}

	// Boundary rows: the local nodes that appear in some exchange list.
	d.Boundary = make([][]int32, p)
	for i := 0; i < p; i++ {
		isBoundary := make([]bool, len(d.Nodes[i]))
		for _, locals := range d.Shared[i] {
			for _, l := range locals {
				isBoundary[l] = true
			}
		}
		for l := range d.Nodes[i] {
			if isBoundary[l] {
				d.Boundary[i] = append(d.Boundary[i], int32(l))
			}
		}
	}
	return d, nil
}

// sameDist fails the test unless got and want hold the same operator,
// matrix values compared bit for bit.
func sameDist(t *testing.T, what string, got, want *Dist) {
	t.Helper()
	if got.P != want.P || got.GlobalNodes != want.GlobalNodes {
		t.Fatalf("%s: %d PEs over %d nodes, reference %d over %d", what, got.P, got.GlobalNodes, want.P, want.GlobalNodes)
	}
	if !slices.Equal(got.Owner, want.Owner) {
		t.Fatalf("%s: Owner differs", what)
	}
	for i := 0; i < want.P; i++ {
		g, w := got.K[i], want.K[i]
		if g.N != w.N || !slices.Equal(g.RowOff, w.RowOff) || !slices.Equal(g.Col, w.Col) {
			t.Fatalf("%s: K[%d] structure differs", what, i)
		}
		for name, vals := range map[string][2][]float64{"Val": {g.Val, w.Val}, "Diag": {g.Diag, w.Diag}} {
			gv, wv := vals[0], vals[1]
			if len(gv) != len(wv) {
				t.Fatalf("%s: K[%d].%s holds %d values, reference %d", what, i, name, len(gv), len(wv))
			}
			for k := range wv {
				if math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
					t.Fatalf("%s: K[%d].%s[%d] is %x, reference %x", what, i, name, k, math.Float64bits(gv[k]), math.Float64bits(wv[k]))
				}
			}
		}
		if !slices.Equal(got.Neighbors[i], want.Neighbors[i]) {
			t.Fatalf("%s: Neighbors[%d] = %v, reference %v", what, i, got.Neighbors[i], want.Neighbors[i])
		}
		if !slices.EqualFunc(got.Shared[i], want.Shared[i], slices.Equal[[]int32]) {
			t.Fatalf("%s: Shared[%d] differs", what, i)
		}
		if !slices.Equal(got.Boundary[i], want.Boundary[i]) {
			t.Fatalf("%s: boundary rows of PE %d differ", what, i)
		}
	}
}

// TestNewDistMatchesReference pins the concurrent, map-free construction
// to the serial map-based one — the folded operator against the fold of
// the reference's matrices — field for field and bit for bit, over
// seeded random graded meshes and a lattice with tied centroids, both
// geometric partitioners, part counts on both sides of the worker count,
// and one, two and four scheduler threads.
func TestNewDistMatchesReference(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(20260927))
	type tc struct {
		name string
		m    *mesh.Mesh
		mat  *material.Model
	}
	var cases []tc
	for i := 0; i < 3; i++ {
		m, mat := testutil.RandomMesh(t, rng)
		cases = append(cases, tc{fmt.Sprintf("random%d", i), m, mat})
	}
	cases = append(cases, tc{"lattice", testutil.UniformMesh(t, 2, 1, 1, 2), material.SanFernando()})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		for _, method := range []partition.Method{partition.RCB, partition.Inertial} {
			for _, p := range []int{1, 2, 3, 5, 8, 16} {
				pt, err := partition.PartitionMesh(c.m, p, method, 1)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := partition.Analyze(c.m, pt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := newDistRef(c.m, c.mat, pt, pr)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					got, err := NewDist(c.m, c.mat, pt, pr)
					if err != nil {
						t.Fatal(err)
					}
					sameDist(t, fmt.Sprintf("%s/%v/p%d/procs%d", c.name, method, p, procs), got, want)
					got.Close()
				}
			}
		}
	}
}

// TestNewDistDegenerateElement: an inverted element fails the build with
// its id — the lowest PE's first one, as the serial loop reported —
// whichever worker meets it and however many others fail beside it.
func TestNewDistDegenerateElement(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	good, mat := testutil.RandomMesh(t, rand.New(rand.NewSource(5)))
	m := &mesh.Mesh{Coords: good.Coords, Tets: slices.Clone(good.Tets)}
	inverted := []int{m.NumElems() / 3, m.NumElems() / 2, m.NumElems() - 1}
	for _, e := range inverted {
		m.Tets[e][0], m.Tets[e][1] = m.Tets[e][1], m.Tets[e][0]
	}
	pt, err := partition.PartitionMesh(m, 8, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ElemPE[inverted[0]] == pt.ElemPE[inverted[1]] && pt.ElemPE[inverted[1]] == pt.ElemPE[inverted[2]] {
		t.Fatalf("all inverted elements on PE %d; the test needs failures on several PEs", pt.ElemPE[inverted[0]])
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	_, want := newDistRef(m, mat, pt, pr)
	if want == nil {
		t.Fatal("reference accepted an inverted element")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			d, err := NewDist(m, mat, pt, pr)
			if err == nil {
				d.Close()
				t.Fatalf("procs %d: inverted elements accepted", procs)
			}
			if err.Error() != want.Error() {
				t.Fatalf("procs %d: %q, reference %q", procs, err, want)
			}
		}
	}
}
