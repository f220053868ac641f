package par

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/partition"
)

type fixture struct {
	m   *mesh.Mesh
	mat *material.Model
	sys *fem.System
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cfg := octree.Config{Origin: geom.V(0, 0, 0), CubeSize: 1, Nx: 2, Ny: 2, Nz: 1, MaxDepth: 3}
	h := func(p geom.Vec3) float64 {
		return math.Max(0.12, 0.35*p.Dist(geom.V(1, 1, 0)))
	}
	tr, err := octree.Build(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.FromTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	mat := material.SanFernando()
	mat.BasinCenter = geom.V(1, 1, 0)
	mat.BasinSemi = geom.V(0.8, 0.7, 0.6)
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, mat: mat, sys: sys}
}

func (f *fixture) dist(t testing.TB, p int, method partition.Method) (*Dist, *partition.Profile) {
	t.Helper()
	pt, err := partition.PartitionMesh(f.m, p, method, 7)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(f.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDist(f.m, f.mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, pr
}

// TestDistributedMatchesSequential is the core numerical validation:
// the distributed SMVP (local multiply + partial-sum exchange) must
// reproduce the sequential global SMVP for every partitioning method
// and PE count.
func TestDistributedMatchesSequential(t *testing.T) {
	f := newFixture(t)
	n3 := 3 * f.m.NumNodes()
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n3)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n3)
	f.sys.K.MulVec(want, x)

	for _, method := range []partition.Method{partition.RCB, partition.Random, partition.StripesZ} {
		for _, p := range []int{1, 2, 4, 8, 13} {
			d, _ := f.dist(t, p, method)
			got := make([]float64, n3)
			if _, err := d.SMVP(got, x); err != nil {
				t.Fatalf("%v/p=%d: %v", method, p, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("%v/p=%d: y[%d] = %g, want %g", method, p, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLocalSumEqualsGlobal checks the assembly identity: scattering the
// per-PE local matrices back to global numbering and summing must
// reproduce the global stiffness exactly (same element contributions,
// same additions, just grouped differently).
func TestLocalSumEqualsGlobal(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 6, partition.RCB)
	n := f.m.NumNodes()
	sum := make(map[[2]int32][9]float64)
	add := func(gi, gj int32, v []float64, transpose bool) {
		key := [2]int32{gi, gj}
		blk := sum[key]
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if transpose {
					blk[3*c+r] += v[3*r+c]
				} else {
					blk[3*r+c] += v[3*r+c]
				}
			}
		}
		sum[key] = blk
	}
	// Unfold each local operator: the diagonal blocks, the stored upper
	// blocks, and their transposes below the diagonal.
	for pe := 0; pe < d.P; pe++ {
		k := d.K[pe]
		for li := 0; li < k.N; li++ {
			gi := d.Nodes[pe][li]
			add(gi, gi, k.Diag[9*li:9*li+9], false)
			for idx := k.RowOff[li]; idx < k.RowOff[li+1]; idx++ {
				gj := d.Nodes[pe][k.Col[idx]]
				add(gi, gj, k.Val[9*idx:9*idx+9], false)
				add(gj, gi, k.Val[9*idx:9*idx+9], true)
			}
		}
	}
	// Compare against the global matrix.
	for i := 0; i < n; i++ {
		for idx := f.sys.K.RowOff[i]; idx < f.sys.K.RowOff[i+1]; idx++ {
			j := f.sys.K.Col[idx]
			got := sum[[2]int32{int32(i), j}]
			for p := 0; p < 9; p++ {
				want := f.sys.K.Val[9*idx+int64(p)]
				if math.Abs(got[p]-want) > 1e-10*(1+math.Abs(want)) {
					t.Fatalf("block (%d,%d)[%d]: sum of locals %g, global %g", i, j, p, got[p], want)
				}
			}
		}
	}
	// And no local block outside the global pattern with nonzero sum.
	for key, blk := range sum {
		if f.sys.K.BlockIndex(key[0], key[1]) < 0 {
			for _, v := range blk {
				if v != 0 {
					t.Fatalf("local-only block (%d,%d) nonzero", key[0], key[1])
				}
			}
		}
	}
}

func TestExchangeListsSymmetric(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 8, partition.RCB)
	for pe := 0; pe < d.P; pe++ {
		for k, nbr := range d.Neighbors[pe] {
			rev := indexOf(d.Neighbors[nbr], int32(pe))
			if rev < 0 {
				t.Fatalf("PE %d lists %d but not vice versa", pe, nbr)
			}
			a, b := d.Shared[pe][k], d.Shared[nbr][rev]
			if len(a) != len(b) {
				t.Fatalf("shared list lengths differ: %d vs %d", len(a), len(b))
			}
			// Same global nodes in the same order on both sides.
			for s := range a {
				ga := d.Nodes[pe][a[s]]
				gb := d.Nodes[nbr][b[s]]
				if ga != gb {
					t.Fatalf("shared order mismatch at %d: %d vs %d", s, ga, gb)
				}
			}
		}
	}
}

func TestNeighborsMatchProfile(t *testing.T) {
	f := newFixture(t)
	d, pr := f.dist(t, 8, partition.RCB)
	for pe := 0; pe < d.P; pe++ {
		cnt := 0
		for j := 0; j < pr.P; j++ {
			if j != pe && pr.Msg[pe][j] > 0 {
				cnt++
			}
		}
		if cnt != len(d.Neighbors[pe]) {
			t.Errorf("PE %d: %d neighbors, profile says %d", pe, len(d.Neighbors[pe]), cnt)
		}
		// Exchange volume agrees with the profile message matrix.
		for k, nbr := range d.Neighbors[pe] {
			words := int64(3 * len(d.Shared[pe][k]))
			if words != pr.Msg[pe][nbr] {
				t.Errorf("PE %d->%d: %d words, profile %d", pe, nbr, words, pr.Msg[pe][nbr])
			}
		}
	}
}

func TestOwnersCoverAllNodes(t *testing.T) {
	f := newFixture(t)
	d, pr := f.dist(t, 5, partition.Linear)
	for v := 0; v < d.GlobalNodes; v++ {
		owner := d.Owner[v]
		found := false
		for _, pe := range pr.NodePEs[v] {
			if pe == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d owned by non-resident PE %d", v, owner)
		}
	}
}

func TestSMVPErrors(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 2, partition.RCB)
	y := make([]float64, 3*d.GlobalNodes)
	if _, err := d.SMVP(y, make([]float64, 5)); err == nil {
		t.Error("short x accepted")
	}
	if _, err := d.SMVP(make([]float64, 5), make([]float64, 3*d.GlobalNodes)); err == nil {
		t.Error("short y accepted")
	}
}

func TestTimingPopulated(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = 1
	}
	tm, err := d.SMVP(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if tm.MaxCompute() <= 0 {
		t.Error("no compute time recorded")
	}
	if tm.MaxComm() < 0 {
		t.Error("negative comm time")
	}
	if len(tm.Compute) != 4 || len(tm.Comm) != 4 {
		t.Error("wrong timing lengths")
	}
}

func TestFlopsPerPE(t *testing.T) {
	f := newFixture(t)
	d, pr := f.dist(t, 4, partition.RCB)
	fl := d.FlopsPerPE()
	for pe, v := range fl {
		if v <= 0 {
			t.Errorf("PE %d: flops %d", pe, v)
		}
		// Element-based local flops never exceed the residency-based F
		// of the profile (the paper's accounting).
		if v > pr.F[pe] {
			t.Errorf("PE %d: element flops %d > residency F %d", pe, v, pr.F[pe])
		}
	}
}

func TestMeasureTf(t *testing.T) {
	f := newFixture(t)
	tf := MeasureTf(f.sys.K, 3)
	if tf <= 0 || tf > 1e-5 {
		t.Errorf("implausible Tf = %g s/flop", tf)
	}
	if tf2 := MeasureTf(f.sys.K, 0); tf2 <= 0 {
		t.Error("iters=0 not defaulted")
	}
}

// TestBoundaryInteriorPartition: Boundary[pe] lists, sorted and without
// repeats, exactly the local rows whose node the profile says is shared
// — every other row is interior, resident on this PE alone — and the
// mesh is large enough for every PE to have both kinds.
func TestBoundaryInteriorPartition(t *testing.T) {
	f := newFixture(t)
	d, pr := f.dist(t, 8, partition.RCB)
	for pe := 0; pe < d.P; pe++ {
		if !slices.IsSorted(d.Boundary[pe]) || len(slices.Compact(slices.Clone(d.Boundary[pe]))) != len(d.Boundary[pe]) {
			t.Fatalf("PE %d: boundary rows not strictly ascending", pe)
		}
		for l, g := range d.Nodes[pe] {
			_, boundary := slices.BinarySearch(d.Boundary[pe], int32(l))
			if shared := len(pr.NodePEs[g]) >= 2; boundary != shared {
				t.Fatalf("PE %d: row %d (node %d) boundary=%v, shared per profile=%v", pe, l, g, boundary, shared)
			}
		}
		if nb := len(d.Boundary[pe]); nb == 0 || nb == len(d.Nodes[pe]) {
			t.Errorf("PE %d: %d of %d rows are boundary (want some of each)", pe, nb, len(d.Nodes[pe]))
		}
	}
}

// TestProfileBoundaryFlops validates the FBoundary accounting of the
// partition profile against the runtime's row classification.
func TestProfileBoundaryFlops(t *testing.T) {
	f := newFixture(t)
	d, pr := f.dist(t, 8, partition.RCB)
	for pe := 0; pe < d.P; pe++ {
		if pr.FBoundary[pe] < 0 || pr.FBoundary[pe] > pr.F[pe] {
			t.Fatalf("PE %d: FBoundary %d outside [0, %d]", pe, pr.FBoundary[pe], pr.F[pe])
		}
		if len(d.Boundary[pe]) > 0 && pr.FBoundary[pe] == 0 {
			t.Fatalf("PE %d: boundary rows exist but FBoundary = 0", pe)
		}
	}
	if pr.FBoundaryMax() <= 0 {
		t.Error("FBoundaryMax not positive")
	}
}
