package analyze_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
)

// TestAnalyzeSFScenario runs a real sf-family operator under both the
// flat and the node-aware aggregated schedule and asserts the analyzer
// produces a coherent report from live telemetry: λ ≥ 1 with a valid
// straggler, a positive achieved decomposition, and a finite Eq.(2)
// drift against the matching schedule model.
func TestAnalyzeSFScenario(t *testing.T) {
	const p = 4

	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := par.NewDist(m, quake.Material(), pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = float64(i%11) * 0.1
	}
	runWindow := func(iters int) analyze.Window {
		t.Helper()
		before := obs.Default.Snapshot()
		for i := 0; i < iters; i++ {
			if _, err := d.SMVP(y, x); err != nil {
				t.Fatal(err)
			}
		}
		w, ok := analyze.FromSnapshots(obs.Default.Snapshot(), before)
		if !ok {
			t.Fatal("no analysis window in telemetry delta")
		}
		if w.Iters != int64(iters) {
			t.Fatalf("window covers %d iters, want %d", w.Iters, iters)
		}
		return w
	}

	app := model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
	t3e := machine.T3E()

	checkReport := func(rep analyze.Report, schedule string) {
		t.Helper()
		if rep.Schedule != schedule {
			t.Errorf("Schedule = %q, want %q", rep.Schedule, schedule)
		}
		if rep.Compute.Lambda < 1 {
			t.Errorf("%s compute λ = %g, want >= 1", schedule, rep.Compute.Lambda)
		}
		if rep.Compute.Straggler < 0 || rep.Compute.Straggler >= p {
			t.Errorf("%s straggler PE%d out of range", schedule, rep.Compute.Straggler)
		}
		if rep.Exchange.Lambda < 1 {
			t.Errorf("%s exchange λ = %g, want >= 1", schedule, rep.Exchange.Lambda)
		}
		if rep.Achieved.Tf <= 0 || rep.Achieved.Tc <= 0 {
			t.Errorf("%s achieved Tf=%g Tc=%g, want > 0", schedule,
				rep.Achieved.Tf, rep.Achieved.Tc)
		}
		if rep.Drift.PredictedTc <= 0 || rep.Drift.MeasuredTc <= 0 {
			t.Errorf("%s drift Tc measured=%g predicted=%g, want > 0", schedule,
				rep.Drift.MeasuredTc, rep.Drift.PredictedTc)
		}
		// Drift on an in-memory runtime vs a T3E model is large but must
		// be finite and consistent with its inputs.
		wantRel := (rep.Drift.MeasuredTc - rep.Drift.PredictedTc) / rep.Drift.PredictedTc
		if rep.Drift.Rel != wantRel {
			t.Errorf("%s drift Rel = %g, want %g", schedule, rep.Drift.Rel, wantRel)
		}
	}

	// Flat schedule.
	flatW := runWindow(8)
	checkReport(analyze.Analyze(flatW, model.FlatExchange(app), t3e.Tl, t3e.Tw, 0, 0), "flat")

	// Aggregated (node-aware) schedule: two PEs per node.
	nodeOf := comm.ContiguousNodes(2)
	if err := d.SetAggregation(nodeOf); err != nil {
		t.Fatal(err)
	}
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := comm.Aggregate(sched, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	agg := model.PlanExchange(a, pr.Fmax(), pr.Cmax())
	if err := agg.Validate(); err != nil {
		t.Fatal(err)
	}

	aggW := runWindow(8)
	checkReport(analyze.Analyze(aggW, agg, t3e.Tl, t3e.Tw, t3e.Tl/10, t3e.Tw/10), "aggregated")
}
