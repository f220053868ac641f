package recover

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/testutil"
)

// TestGrowPartition pins the regrowth invariants: the revived slot is
// inserted (P+1, existing PEs renumbered up), elements move only onto
// the revived PE, no donor is drained below the balanced target, the
// result validates, and the procedure is deterministic.
func TestGrowPartition(t *testing.T) {
	f := newFixture(t)
	pt := f.partition(t, 8)
	const revived = 3
	gpt, donor, err := GrowPartition(f.m, pt, revived)
	if err != nil {
		t.Fatal(err)
	}
	if gpt.P != 9 {
		t.Fatalf("grown P = %d, want 9", gpt.P)
	}
	if err := gpt.Validate(); err != nil {
		t.Fatal(err)
	}
	if donor < 0 || donor >= gpt.P || donor == revived {
		t.Fatalf("donor %d invalid for revived slot %d of %d PEs", donor, revived, gpt.P)
	}

	// Elements either keep their renumbered assignment or joined the
	// revived region — a grow never shuffles elements between donors.
	before := make([]int, gpt.P)
	for e, old := range pt.ElemPE {
		want := old
		if int(old) >= revived {
			want++
		}
		before[want]++
		if got := gpt.ElemPE[e]; got != want && int(got) != revived {
			t.Fatalf("element %d moved from PE %d to %d (revived slot is %d)", e, want, got, revived)
		}
	}

	target := f.m.NumElems() / gpt.P
	sizes := gpt.Sizes()
	if sizes[revived] < 1 || sizes[revived] > target {
		t.Fatalf("revived PE holds %d elements, want within [1,%d]", sizes[revived], target)
	}
	for q := 0; q < gpt.P; q++ {
		if q == revived {
			continue
		}
		if sizes[q] < before[q] && sizes[q] < target {
			t.Fatalf("donor %d drained to %d elements, below the target %d", q, sizes[q], target)
		}
	}

	// Determinism.
	again, donor2, err := GrowPartition(f.m, pt, revived)
	if err != nil {
		t.Fatal(err)
	}
	if donor2 != donor {
		t.Fatalf("grow is nondeterministic: donors %d vs %d", donor, donor2)
	}
	for e := range gpt.ElemPE {
		if gpt.ElemPE[e] != again.ElemPE[e] {
			t.Fatalf("grow is nondeterministic at element %d", e)
		}
	}

	// Inserting at the top slot (pe == P) appends a new highest PE.
	top, _, err := GrowPartition(f.m, pt, 8)
	if err != nil {
		t.Fatal(err)
	}
	if top.P != 9 {
		t.Fatalf("top-slot grow P = %d, want 9", top.P)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}

	// Error cases.
	if _, _, err := GrowPartition(f.m, pt, 9); err == nil {
		t.Fatal("out-of-range revived slot accepted")
	}
	if _, _, err := GrowPartition(f.m, pt, -1); err == nil {
		t.Fatal("negative revived slot accepted")
	}
}

// TestGrowShrinkRoundTrip: regrowing the slot a shrink compacted away
// restores the original width with a valid, balanced partition.
func TestGrowShrinkRoundTrip(t *testing.T) {
	f := newFixture(t)
	pt := f.partition(t, 8)
	const dead = 5
	spt, err := ShrinkPartition(f.m, pt, dead)
	if err != nil {
		t.Fatal(err)
	}
	gpt, _, err := GrowPartition(f.m, spt, dead)
	if err != nil {
		t.Fatal(err)
	}
	if gpt.P != 8 {
		t.Fatalf("round-trip width %d, want 8", gpt.P)
	}
	if err := gpt.Validate(); err != nil {
		t.Fatal(err)
	}
	// The round trip must not leave the regrown slot starved: it holds
	// at least half the balanced share.
	if sizes := gpt.Sizes(); sizes[dead] < f.m.NumElems()/(2*gpt.P) {
		t.Fatalf("regrown PE %d holds %d of %d elements", dead, sizes[dead], f.m.NumElems())
	}
}

// TestGrowNodeOfComposition: the revived PE takes its donor's node —
// the donor named by its post-grow id, on either side of the slot — and
// GrowNodeOf is the inverse of ShrinkNodeOf: shrinking the slot away
// again restores the original mapping. The flat map stays flat.
func TestGrowNodeOfComposition(t *testing.T) {
	base := comm.ContiguousNodes(2) // 0,0,1,1,2,2,...
	g := GrowNodeOf(base, 2, 5)     // insert at slot 2; donor is old PE 4, node 2
	want := []int32{0, 0, 2, 1, 1, 2}
	for pe, w := range want {
		if got := g(int32(pe)); got != w {
			t.Fatalf("after grow, nodeOf(%d) = %d, want %d", pe, got, w)
		}
	}
	if got := GrowNodeOf(base, 2, 1)(2); got != 0 {
		t.Fatalf("donor below the slot: revived PE on node %d, want 0", got)
	}
	if GrowNodeOf(nil, 2, 1) != nil || ShrinkNodeOf(nil, 2) != nil {
		t.Fatal("the flat map did not stay nil across a transition")
	}
	// Round trip: shrink slot 2 away again.
	rt := ShrinkNodeOf(g, 2)
	for pe := int32(0); pe < 5; pe++ {
		if got, w := rt(pe), base(pe); got != w {
			t.Fatalf("round trip nodeOf(%d) = %d, want %d", pe, got, w)
		}
	}
}

// TestGrowRebuildsWorkingDist: Grow's Dist computes the same SMVP as a
// fresh full-width reference (to roundoff — the summation order
// differs across partitions) and reports the transition metadata.
func TestGrowRebuildsWorkingDist(t *testing.T) {
	f := newFixture(t)
	pt := f.partition(t, 8)
	spt, err := ShrinkPartition(f.m, pt, 4)
	if err != nil {
		t.Fatal(err)
	}
	reb, err := Grow(f.m, f.mat, spt, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer reb.Dist.Close()
	if reb.Donor < 0 || reb.Donor >= 8 || reb.Donor == 4 {
		t.Fatalf("donor %d of a grow at slot 4 of 8", reb.Donor)
	}
	if reb.Dist.P != 8 || reb.Partition.P != 8 || reb.Profile.P != 8 {
		t.Fatalf("grown widths: dist=%d part=%d profile=%d, want 8", reb.Dist.P, reb.Partition.P, reb.Profile.P)
	}

	refD := f.dist(t, f.partition(t, 8))
	defer refD.Close()
	n := 3 * f.m.NumNodes()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	got := make([]float64, n)
	want := make([]float64, n)
	if _, err := reb.Dist.SMVP(got, x); err != nil {
		t.Fatal(err)
	}
	if _, err := refD.SMVP(want, x); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("grown SMVP differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// checkRebuilt holds one transition's outcome to what every transition
// must conserve: a valid partition of the whole mesh at the expected
// width, Dist and Profile at that width, every element's four nodes
// resident on the PE that holds it and nowhere it is not needed, and an
// operator in which every element counts exactly once — its SMVP is the
// serially assembled K·x to roundoff.
func checkRebuilt(t *testing.T, what string, f *fixture, reb *Rebuilt, width int) {
	t.Helper()
	pt := reb.Partition
	if err := pt.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if pt.P != width || reb.Dist.P != width || reb.Profile.P != width {
		t.Fatalf("%s: widths partition=%d dist=%d profile=%d, want %d", what, pt.P, reb.Dist.P, reb.Profile.P, width)
	}
	if len(pt.ElemPE) != f.m.NumElems() {
		t.Fatalf("%s: partition covers %d of %d elements", what, len(pt.ElemPE), f.m.NumElems())
	}
	resident := make([][]int32, width)
	for e, tet := range f.m.Tets {
		resident[pt.ElemPE[e]] = append(resident[pt.ElemPE[e]], tet[:]...)
	}
	for pe := range resident {
		slices.Sort(resident[pe])
		if want := slices.Compact(resident[pe]); !slices.Equal(reb.Dist.Nodes[pe], want) {
			t.Fatalf("%s: PE %d holds %d nodes, its elements touch %d", what, pe, len(reb.Dist.Nodes[pe]), len(want))
		}
	}
	n := 3 * f.m.NumNodes()
	x, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	if _, err := reb.Dist.SMVP(got, x); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	f.sys.K.MulVec(want, x)
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12*scale {
			t.Fatalf("%s: SMVP scalar %d is %g, serial K·x has %g", what, i, got[i], want[i])
		}
	}
}

// TestTransitionsConserveTheMesh runs the three transitions over seeded
// random graded meshes × {rcb, inertial} × p ∈ {2, 3, 5, 8}: Shrink a
// random PE away, Grow it back, Rebalance a skewed-load window — each
// outcome held to checkRebuilt at width p−1, p, p — with nothing left
// running once the Dists are closed.
func TestTransitionsConserveTheMesh(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rebalanced := 0
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomFixture(t, rng)
		for _, method := range []partition.Method{partition.RCB, partition.Inertial} {
			for _, p := range []int{2, 3, 5, 8} {
				what := fmt.Sprintf("seed %d, %v, p=%d", seed, method, p)
				pt, err := partition.PartitionMesh(f.m, p, method, seed)
				if err != nil {
					t.Fatal(err)
				}
				dead := rng.Intn(p)
				shrunk, err := Shrink(f.m, f.mat, pt, dead)
				if err != nil {
					t.Fatalf("%s: shrink of PE %d: %v", what, dead, err)
				}
				checkRebuilt(t, what+", shrunk", f, shrunk, p-1)
				grown, err := Grow(f.m, f.mat, shrunk.Partition, dead)
				if err != nil {
					t.Fatalf("%s: grow at slot %d: %v", what, dead, err)
				}
				checkRebuilt(t, what+", regrown", f, grown, p)
				if shrunk.Donor != -1 || grown.Donor < 0 || grown.Donor >= p || grown.Donor == dead {
					t.Fatalf("%s: donors %d (shrink) and %d (grow at %d)", what, shrunk.Donor, grown.Donor, dead)
				}
				// PE 0 measured three times as slow per element as the rest.
				loads := make([]int64, p)
				for q, size := range grown.Partition.Sizes() {
					loads[q] = int64(size) * 1000
				}
				loads[0] *= 3
				moved, moves, err := Rebalance(f.m, f.mat, grown.Partition, loads, 2)
				if err != nil {
					t.Fatalf("%s: rebalance: %v", what, err)
				}
				if moves > 0 {
					rebalanced++
					checkRebuilt(t, what+", rebalanced", f, moved, p)
					moved.Dist.Close()
				} else if moved != nil {
					t.Fatalf("%s: a rebalance of no moves rebuilt an operator", what)
				}
				shrunk.Dist.Close()
				grown.Dist.Close()
			}
		}
	}
	if rebalanced == 0 {
		t.Fatal("no configuration admitted a rebalance move; the skew is too weak to test one")
	}
}
