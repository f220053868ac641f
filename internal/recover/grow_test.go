package recover

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
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
				moved, moves, err := Rebalance(f.m, f.mat, grown.Partition, loads, 2, grown.Dist.Operators(grown.Partition))
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

// growPartitionReference is GrowPartition as it stood before it kept a
// frontier: every round rescans the whole mesh for the region's
// neighbors. TestGrowMatchesReference holds the frontier form to it.
func growPartitionReference(m *mesh.Mesh, pt *partition.Partition, revived int) (*partition.Partition, int, error) {
	if revived < 0 || revived > pt.P {
		return nil, -1, fmt.Errorf("recover: revived slot %d out of range [0,%d]", revived, pt.P)
	}
	if len(pt.ElemPE) != m.NumElems() {
		return nil, -1, fmt.Errorf("recover: partition covers %d elements, mesh has %d", len(pt.ElemPE), m.NumElems())
	}
	newP := pt.P + 1
	ne := m.NumElems()
	if newP > ne {
		return nil, -1, fmt.Errorf("recover: growing to %d PEs with only %d elements", newP, ne)
	}

	pe := make([]int32, len(pt.ElemPE))
	for e, p := range pt.ElemPE {
		if int(p) >= revived {
			p++
		}
		pe[e] = p
	}
	load := make([]int, newP)
	for _, p := range pe {
		load[p]++
	}

	// The balanced share the revived PE grows toward. Donors above it
	// may give; donors at or below it are left alone.
	target := ne / newP
	if target < 1 {
		target = 1
	}

	// Seed: the lowest-indexed element of the most-loaded donor, so the
	// region starts in the thick of the imbalance the death created.
	donor := -1
	for q := 0; q < newP; q++ {
		if q == revived {
			continue
		}
		if donor == -1 || load[q] > load[donor] {
			donor = q
		}
	}
	for e := range pe {
		if int(pe[e]) == donor {
			pe[e] = int32(revived)
			load[donor]--
			load[revived]++
			break
		}
	}

	elemsOfNode := make([][]int32, m.NumNodes())
	for e, t := range m.Tets {
		for _, v := range t {
			elemsOfNode[v] = append(elemsOfNode[v], int32(e))
		}
	}

	for load[revived] < target {
		// Candidates are the elements node-adjacent to the region as it
		// stood entering the round (BFS layers), ascending; loads update
		// live so the claim stops the moment a donor reaches the target.
		seen := make(map[int32]bool)
		var cand []int32
		for e, p := range pe {
			if int(p) != revived {
				continue
			}
			for _, v := range m.Tets[e] {
				for _, ne := range elemsOfNode[v] {
					if int(pe[ne]) != revived && !seen[ne] {
						seen[ne] = true
						cand = append(cand, ne)
					}
				}
			}
		}
		sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
		took := 0
		for _, e := range cand {
			if load[revived] >= target {
				break
			}
			q := pe[e]
			if int(q) == revived || load[q] <= target {
				continue
			}
			pe[e] = int32(revived)
			load[q]--
			load[revived]++
			took++
		}
		if took == 0 {
			// Every adjacent donor is at the target already; growing
			// further would just relocate the imbalance.
			break
		}
	}

	out := &partition.Partition{P: newP, ElemPE: pe}
	if err := out.Validate(); err != nil {
		return nil, -1, fmt.Errorf("recover: grown partition invalid: %w", err)
	}
	return out, donor, nil
}

// TestGrowMatchesReference: the frontier form of GrowPartition returns
// the reference's partition and donor over seeded random graded meshes
// × {rcb, inertial} × p ∈ {1, 2, 4, 8} × every slot, on fresh
// partitions and on the shrunk ones Supervise regrows — including grows
// that stop short of the target because every adjacent donor is at it.
func TestGrowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	grows, stalled := 0, 0
	check := func(what string, m *mesh.Mesh, pt *partition.Partition) {
		t.Helper()
		for slot := 0; slot <= pt.P; slot++ {
			got, donor, err := GrowPartition(m, pt, slot)
			want, wantDonor, wantErr := growPartitionReference(m, pt, slot)
			if err != nil || wantErr != nil {
				t.Fatalf("%s, slot %d: %v, reference %v", what, slot, err, wantErr)
			}
			if donor != wantDonor || !slices.Equal(got.ElemPE, want.ElemPE) {
				t.Fatalf("%s, slot %d: donor %d, reference %d; ElemPE equal %v",
					what, slot, donor, wantDonor, slices.Equal(got.ElemPE, want.ElemPE))
			}
			grows++
			if got.Sizes()[slot] < max(1, m.NumElems()/got.P) {
				stalled++
			}
		}
	}
	for mi := 0; mi < 3; mi++ {
		m, _ := testutil.RandomMesh(t, rng)
		for _, method := range []partition.Method{partition.RCB, partition.Inertial} {
			for _, p := range []int{1, 2, 4, 8} {
				what := fmt.Sprintf("mesh %d, %v, p=%d", mi, method, p)
				pt, err := partition.PartitionMesh(m, p, method, 1)
				if err != nil {
					t.Fatal(err)
				}
				check(what, m, pt)
				if p > 1 {
					spt, err := ShrinkPartition(m, pt, mi%p)
					if err != nil {
						t.Fatal(err)
					}
					check(what+", shrunk", m, spt)
				}
			}
		}
	}
	if stalled == 0 {
		t.Fatalf("none of %d grows stopped short of its target; the early exit went untested", grows)
	}
	t.Logf("%d grows, %d stopped short of the target", grows, stalled)
}
