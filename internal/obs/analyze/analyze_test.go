package analyze

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12+1e-9*math.Abs(b)
}

func TestImbalanceOf(t *testing.T) {
	im := ImbalanceOf([]int64{100, 200, 300, 400})
	if !almost(im.Lambda, 1.6) {
		t.Fatalf("Lambda = %g, want 1.6", im.Lambda)
	}
	if im.Mean != 250 || im.Max != 400 {
		t.Fatalf("Mean/Max = %v/%v, want 250/400", im.Mean, im.Max)
	}
	if im.Straggler != 3 {
		t.Fatalf("Straggler = %d, want 3", im.Straggler)
	}
	// Threshold 1.2×250 = 300: only PE3 (400) exceeds it.
	if len(im.Stragglers) != 1 || im.Stragglers[0] != 3 {
		t.Fatalf("Stragglers = %v, want [3]", im.Stragglers)
	}

	if bal := ImbalanceOf([]int64{7, 7, 7}); !almost(bal.Lambda, 1) || len(bal.Stragglers) != 0 {
		t.Fatalf("balanced vector: λ=%g stragglers=%v", bal.Lambda, bal.Stragglers)
	}
	if empty := ImbalanceOf(nil); empty.Lambda != 1 || empty.Straggler != -1 {
		t.Fatalf("empty vector: %+v", empty)
	}
	if zero := ImbalanceOf([]int64{0, 0}); zero.Lambda != 1 || zero.Straggler != -1 {
		t.Fatalf("zero vector: %+v", zero)
	}
}

func TestAchievedOf(t *testing.T) {
	w := Window{
		Iters:      10,
		ComputeNS:  []int64{100, 400}, // max 400ns over 10 iters → 40ns/iter
		ExchangeNS: []int64{100, 80},  // max 100ns → 10ns/iter
	}
	app := model.AppProperties{F: 8, Cmax: 5, Bmax: 10}
	a := AchievedOf(w, app)
	if !almost(a.ComputePerIter, 40e-9) {
		t.Fatalf("ComputePerIter = %g, want 40e-9", a.ComputePerIter)
	}
	if !almost(a.ExchangePerIter, 10e-9) {
		t.Fatalf("ExchangePerIter = %g, want 10e-9", a.ExchangePerIter)
	}
	if !almost(a.Tf, 5e-9) {
		t.Fatalf("Tf = %g, want 5e-9", a.Tf)
	}
	if !almost(a.Tc, 2e-9) {
		t.Fatalf("Tc = %g, want 2e-9", a.Tc)
	}
	if z := AchievedOf(Window{}, app); z != (Achieved{}) {
		t.Fatalf("empty window achieved %+v, want zero", z)
	}
}

func TestDriftFlat(t *testing.T) {
	w := Window{Iters: 10, ExchangeNS: []int64{100}} // measured Tc = 10ns/5 = 2ns
	x := model.FlatExchange(model.AppProperties{F: 8, Cmax: 5, Bmax: 10})

	// Eq.(2): (Bmax/Cmax)·Tl + Tw = 2·0.5ns + 1ns = 2ns → zero drift.
	d := DriftOf(w, x, 0.5e-9, 1e-9, 0, 0)
	if !almost(d.PredictedTc, 2e-9) || !almost(d.MeasuredTc, 2e-9) || !almost(d.Rel, 0) {
		t.Fatalf("zero-drift case: %+v", d)
	}

	// Predicted 1.5ns, measured 2ns → +33.3% drift.
	d = DriftOf(w, x, 0.5e-9, 0.5e-9, 0, 0)
	if !almost(d.PredictedTc, 1.5e-9) || !almost(d.Rel, 1.0/3.0) {
		t.Fatalf("slow case: %+v", d)
	}

	// Measured faster than predicted → negative drift.
	d = DriftOf(w, x, 1e-9, 2e-9, 0, 0) // predicted 4ns
	if d.Rel >= 0 || !almost(d.Rel, -0.5) {
		t.Fatalf("fast case: %+v", d)
	}
}

func TestDriftAggregated(t *testing.T) {
	w := Window{Iters: 10, ExchangeNS: []int64{100}} // measured Tc = 2ns
	agg := model.Exchange{
		F: 8, Cmax: 5,
		InterBmax: 2, InterCmax: 4,
		LocalBmax: 4, LocalCmax: 6,
	}
	// (2/5)·1ns + (4/5)·0.5ns + (4/5)·0.25ns + (6/5)·0.5ns = 1.6ns
	d := DriftOf(w, agg, 1e-9, 0.5e-9, 0.25e-9, 0.5e-9)
	if !almost(d.PredictedTc, 1.6e-9) {
		t.Fatalf("PredictedTc = %g, want 1.6e-9", d.PredictedTc)
	}
	if !almost(d.Rel, (2.0-1.6)/1.6) {
		t.Fatalf("Rel = %g, want 0.25", d.Rel)
	}
}

func TestFromSnapshots(t *testing.T) {
	prevEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)

	r := obs.NewRegistry()
	comp := r.PEAccum(MetricCompute, 2)
	exch := r.PEAccum(MetricExchange, 2)
	upd := r.PEAccum(MetricUpdate, 2)

	comp.Observe(0, 100)
	comp.Observe(1, 150)
	exch.Observe(0, 30)
	exch.Observe(1, 20)
	upd.Observe(0, 10)
	upd.Observe(1, 10)
	prev := r.Snapshot()

	for i := 0; i < 3; i++ {
		comp.Observe(0, 100)
		comp.Observe(1, 200)
		exch.Observe(0, 40)
		exch.Observe(1, 10)
		upd.Observe(0, 5)
		upd.Observe(1, 5)
	}
	cur := r.Snapshot()

	w, ok := FromSnapshots(cur, prev)
	if !ok {
		t.Fatal("window not found in delta snapshot")
	}
	if w.Iters != 3 {
		t.Fatalf("Iters = %d, want 3", w.Iters)
	}
	if w.ComputeNS[0] != 300 || w.ComputeNS[1] != 600 {
		t.Fatalf("ComputeNS = %v, want [300 600]", w.ComputeNS)
	}
	if w.ExchangeNS[0] != 120 || w.ExchangeNS[1] != 30 {
		t.Fatalf("ExchangeNS = %v, want [120 30]", w.ExchangeNS)
	}
	if w.UpdateNS[0] != 15 || w.UpdateNS[1] != 15 {
		t.Fatalf("UpdateNS = %v, want [15 15]", w.UpdateNS)
	}

	// Full snapshot (nil prev) sees the cumulative totals.
	full, ok := FromSnapshots(cur, nil)
	if !ok || full.Iters != 4 || full.ComputeNS[0] != 400 {
		t.Fatalf("full window: ok=%v %+v", ok, full)
	}

	// A snapshot with no phase accumulators yields no window.
	if _, ok := FromSnapshot(obs.NewRegistry().Snapshot()); ok {
		t.Fatal("empty registry should not produce a window")
	}
	if _, ok := FromSnapshot(nil); ok {
		t.Fatal("nil snapshot should not produce a window")
	}
}

func TestReportStringAndPublish(t *testing.T) {
	prevEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)

	w := Window{
		Iters:      10,
		ComputeNS:  []int64{100, 400},
		ExchangeNS: []int64{100, 80},
	}
	app := model.AppProperties{F: 8, Cmax: 5, Bmax: 10}
	rep := Analyze(w, model.FlatExchange(app), 0.5e-9, 1e-9, 0, 0)
	if rep.Schedule != "flat" {
		t.Fatalf("Schedule = %q", rep.Schedule)
	}
	if !almost(rep.Compute.Lambda, 1.6) {
		t.Fatalf("compute λ = %g", rep.Compute.Lambda)
	}
	if s := rep.String(); s == "" {
		t.Fatal("empty report string")
	}

	rep.Publish()
	snap := obs.Default.Snapshot()
	if g := snap.Gauges["analyze.compute.lambda"]; !almost(g, 1.6) {
		t.Fatalf("published λ gauge = %g, want 1.6", g)
	}
	if _, found := snap.Gauges["analyze.drift.rel"]; !found {
		t.Fatal("drift gauge not published")
	}
}

func TestImbalanceDurations(t *testing.T) {
	im := ImbalanceOf([]int64{int64(time.Millisecond), int64(3 * time.Millisecond)})
	if im.Max != 3*time.Millisecond {
		t.Fatalf("Max = %v, want 3ms", im.Max)
	}
	if im.Mean != 2*time.Millisecond {
		t.Fatalf("Mean = %v, want 2ms", im.Mean)
	}
}
