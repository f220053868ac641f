package recover

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
)

// TestRebalancerHysteresis pins the K-consecutive-windows trigger: hot
// windows below K never fire, a cool window resets the count, the K-th
// consecutive hot window fires exactly once and re-arms.
func TestRebalancerHysteresis(t *testing.T) {
	var r Rebalancer
	hot := analyze.Imbalance{Lambda: 2.0}
	cool := analyze.Imbalance{Lambda: 1.1}

	if r.Observe(hot) {
		t.Fatal("fired after one hot window with K=2")
	}
	if !r.Observe(hot) {
		t.Fatal("did not fire after two consecutive hot windows")
	}
	// Re-armed: the next hot window starts a fresh count.
	if r.Observe(hot) {
		t.Fatal("fired immediately after re-arming")
	}
	if r.Observe(cool) {
		t.Fatal("fired on a cool window")
	}
	if r.Observe(hot) {
		t.Fatal("cool window did not reset the count")
	}
	if !r.Observe(hot) {
		t.Fatal("did not fire after reset + two hot windows")
	}
	// Exactly at the threshold counts as cool (strict inequality).
	at := analyze.Imbalance{Lambda: rebalanceLambda}
	r.Observe(hot)
	if r.Observe(at) {
		t.Fatal("fired with one hot and one at-threshold window")
	}
	if r.Observe(hot) {
		t.Fatal("at-threshold window did not reset the count")
	}
}

// skewedPartition assigns the first ne·frac elements to PE 0 and
// spreads the rest linearly over PEs 1..p−1 — a deliberately bad
// partition whose straggler is PE 0. Octree element order is
// depth-then-space, so the regions are contiguous and mesh-adjacent.
func skewedPartition(ne, p int, frac float64) *partition.Partition {
	pt := &partition.Partition{P: p, ElemPE: make([]int32, ne)}
	head := int(frac * float64(ne))
	for e := 0; e < ne; e++ {
		if e < head {
			pt.ElemPE[e] = 0
		} else {
			pt.ElemPE[e] = 1 + int32(int64(e-head)*int64(p-1)/int64(ne-head))
		}
	}
	return pt
}

// TestRebalancePartitionReducesSkew drives the migration pass with
// synthetic loads proportional to element count and checks the
// deterministic outcome: moves happen, only boundary layers of the hot
// PE migrate, predicted imbalance falls, and the pass is reproducible.
func TestRebalancePartitionReducesSkew(t *testing.T) {
	f := newFixture(t)
	ne := f.m.NumElems()
	pt := skewedPartition(ne, 8, 0.4)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	loads := make([]int64, pt.P)
	for q, s := range pt.Sizes() {
		loads[q] = int64(s) * 1000
	}
	lambdaOf := func(p *partition.Partition) float64 {
		perPE := make([]int64, p.P)
		for q, s := range p.Sizes() {
			perPE[q] = int64(s)
		}
		return analyze.ImbalanceOf(perPE).Lambda
	}
	before := lambdaOf(pt)

	rpt, moves, err := RebalancePartition(f.m, pt, loads, 3)
	if err != nil {
		t.Fatal(err)
	}
	if moves < 1 {
		t.Fatalf("no migrations on a %.2fλ partition", before)
	}
	if err := rpt.Validate(); err != nil {
		t.Fatal(err)
	}
	if after := lambdaOf(rpt); after >= before {
		t.Fatalf("element-count λ %.3f did not fall below %.3f after %d moves", after, before, moves)
	}
	// Elements only ever leave a donor for one receiver per move; no
	// element of a cool PE moves.
	for e := range rpt.ElemPE {
		if rpt.ElemPE[e] != pt.ElemPE[e] && pt.ElemPE[e] != 0 {
			t.Fatalf("element %d moved off cool PE %d", e, pt.ElemPE[e])
		}
	}
	// Determinism.
	again, moves2, err := RebalancePartition(f.m, pt, loads, 3)
	if err != nil {
		t.Fatal(err)
	}
	if moves2 != moves {
		t.Fatalf("rebalance nondeterministic: %d vs %d moves", moves, moves2)
	}
	for e := range rpt.ElemPE {
		if rpt.ElemPE[e] != again.ElemPE[e] {
			t.Fatalf("rebalance nondeterministic at element %d", e)
		}
	}
	// Balanced inputs are a no-op.
	even := f.partition(t, 8)
	evenLoads := make([]int64, even.P)
	for q, s := range even.Sizes() {
		evenLoads[q] = int64(s) * 1000
	}
	if _, moves, err := RebalancePartition(f.m, even, evenLoads, 3); err != nil || moves != 0 {
		t.Fatalf("balanced partition: moves=%d err=%v", moves, err)
	}
	// Bad inputs.
	if _, _, err := RebalancePartition(f.m, pt, loads[:3], 3); err == nil {
		t.Fatal("short load vector accepted")
	}
}

// TestRebalanceReducesMeasuredLambda is the acceptance criterion: on a
// deliberately skewed sf-family partition, one rebalance pass driven by
// *measured* per-PE compute time reduces λ = max/mean. The skew is large
// (40% of elements on PE 0, λ ≈ 3) so timing noise cannot hide the
// straggler from the measurement that picks the moves.
func TestRebalanceReducesMeasuredLambda(t *testing.T) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	mat := quake.Material()
	pt := skewedPartition(m.NumElems(), 8, 0.4)
	if err := pt.Validate(); err != nil {
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

	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = float64(i%7) * 0.25
	}
	const reps = 12
	measure := func(d *par.Dist, p int) []int64 {
		t.Helper()
		before := obs.Default.Snapshot()
		for i := 0; i < reps; i++ {
			if _, err := d.SMVP(y, x); err != nil {
				t.Fatal(err)
			}
		}
		w, ok := analyze.FromSnapshots(obs.Default.Snapshot(), before)
		if !ok {
			t.Fatal("no analysis window in telemetry delta")
		}
		// The accumulator registry never shrinks; trim to the live width.
		return w.ComputeNS[:p]
	}

	loads := measure(d, pt.P)
	imBefore := analyze.ImbalanceOf(loads)
	if imBefore.Lambda < 1.5 {
		t.Fatalf("skewed partition measured λ = %.3f, expected a pronounced straggler", imBefore.Lambda)
	}
	if imBefore.Straggler != 0 {
		t.Fatalf("measured straggler is PE %d, want the overloaded PE 0", imBefore.Straggler)
	}

	reb, moves, err := Rebalance(m, mat, pt, loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	if moves < 1 || reb == nil {
		t.Fatalf("rebalance made no moves on a λ=%.2f partition", imBefore.Lambda)
	}
	d.Close()
	defer reb.Dist.Close()
	if reb.Partition.P != pt.P {
		t.Fatalf("rebalance changed the width: %d → %d", pt.P, reb.Partition.P)
	}

	// The improvement is asserted on the work the PEs were handed — λ of
	// the per-PE flop counts — which the moves change and machine load
	// does not. The wall-clock λ of a dozen SMVPs on 8 PEs swings by more
	// than one pass gains whenever other packages' tests share the cores,
	// so it is logged, not asserted.
	flopsBefore := analyze.ImbalanceOf(d.FlopsPerPE())
	flopsAfter := analyze.ImbalanceOf(reb.Dist.FlopsPerPE())
	if flopsAfter.Lambda >= flopsBefore.Lambda {
		t.Fatalf("flop λ did not improve: %.3f → %.3f after %d moves", flopsBefore.Lambda, flopsAfter.Lambda, moves)
	}
	imAfter := analyze.ImbalanceOf(measure(reb.Dist, reb.Partition.P))
	t.Logf("flop λ %.3f → %.3f, measured λ %.3f → %.3f after %d boundary-layer moves",
		flopsBefore.Lambda, flopsAfter.Lambda, imBefore.Lambda, imAfter.Lambda, moves)
}
