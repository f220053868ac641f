package quake_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	quake "repro"
)

// TestFacadeEndToEnd drives the whole public API once on the smallest
// scenario: mesh, partition, profile, models, schedule, simulator,
// distributed runtime, and the figure tables.
func TestFacadeEndToEnd(t *testing.T) {
	s, err := quake.ScenarioByName("sf10")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() < 1000 {
		t.Fatalf("suspiciously small mesh: %d nodes", m.NumNodes())
	}

	pt, err := quake.PartitionMesh(m, 8, quake.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := quake.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	app := quake.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}

	// Models.
	bw := quake.RequiredBandwidth(app, 0.9, 5e-9)
	if quake.MBps(bw) <= 0 {
		t.Error("non-positive bandwidth requirement")
	}
	t3e := quake.T3E()
	e := quake.Efficiency(app, t3e.Tf, t3e.Tl, t3e.Tw)
	if e <= 0 || e >= 1 {
		t.Errorf("efficiency = %g", e)
	}
	hbw, hlat := quake.HalfBandwidthPoint(app, 0.9, 5e-9)
	if hbw <= 0 || hlat <= 0 {
		t.Error("bad half-bandwidth point")
	}

	// Exchange schedule and discrete simulation.
	sched, err := quake.ScheduleFromProfile(pr)
	if err != nil {
		t.Fatal(err)
	}
	res := quake.SimulateExchange(sched, t3e, quake.NetworkConfig{Transit: 1e-6})
	if res.CommTime <= 0 {
		t.Error("no simulated exchange time")
	}

	// Real distributed SMVP against the sequential kernel.
	mat := quake.SanFernando()
	sys, err := quake.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := quake.NewDist(m, mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	seq := make([]float64, len(x))
	sys.K.MulVec(seq, x)
	par := make([]float64, len(x))
	tm, err := dist.SMVP(par, x)
	if err != nil {
		t.Fatal(err)
	}
	if tm.MaxCompute() <= 0 {
		t.Error("no compute time")
	}
	for i := range seq {
		if math.Abs(par[i]-seq[i]) > 1e-9*(1+math.Abs(seq[i])) {
			t.Fatalf("distributed mismatch at %d: %g vs %g", i, par[i], seq[i])
		}
	}

	// Symmetric kernel agrees too.
	sym, err := quake.NewSym(sys.K)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([]float64, len(x))
	sym.MulVec(ys, x)
	for i := range seq {
		if math.Abs(ys[i]-seq[i]) > 1e-9*(1+math.Abs(seq[i])) {
			t.Fatalf("sym mismatch at %d", i)
		}
	}

	// Host T_f measurement.
	if tf := quake.MeasureTf(sys.K, 2); tf <= 0 {
		t.Error("bad measured Tf")
	}
}

func TestFacadeTables(t *testing.T) {
	small := []quake.Scenario{quake.SF10}
	pcs := []int{4, 8}
	if _, err := quake.Fig2Table(small); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func() (*quake.Table, error){
		"fig6":  func() (*quake.Table, error) { return quake.Fig6Table(small, pcs, quake.RCB) },
		"fig7":  func() (*quake.Table, error) { return quake.Fig7Table(small, pcs, quake.RCB) },
		"fig8":  func() (*quake.Table, error) { return quake.Fig8Table(quake.SF10, pcs, quake.RCB) },
		"fig9":  func() (*quake.Table, error) { return quake.Fig9Table(quake.SF10, pcs, quake.RCB) },
		"fig11": func() (*quake.Table, error) { return quake.Fig11Table(quake.SF10, pcs, quake.RCB) },
	} {
		tab, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sb strings.Builder
		if err := tab.Render(&sb); err != nil {
			t.Fatalf("%s render: %v", name, err)
		}
		if len(sb.String()) < 50 {
			t.Errorf("%s output too short", name)
		}
	}
	rows, err := quake.Properties(quake.SF10, pcs, quake.RCB)
	if err != nil {
		t.Fatal(err)
	}
	tab := quake.Fig10Table(rows[1], 5e-9, []float64{10, 100})
	if len(tab.Rows) == 0 {
		t.Error("fig10 empty")
	}
}

func TestFamilyAndPresets(t *testing.T) {
	if got := quake.Family(false); len(got) != 4 || got[3].Name != "sf1s" {
		t.Errorf("Family(false) = %v", got)
	}
	if got := quake.Family(true); got[3].Name != "sf1" {
		t.Errorf("Family(true) = %v", got)
	}
	if len(quake.PECounts) != 6 || quake.PECounts[0] != 4 || quake.PECounts[5] != 128 {
		t.Errorf("PECounts = %v", quake.PECounts)
	}
	for _, m := range []quake.MachineParams{quake.T3D(), quake.T3E(), quake.Current100(), quake.Future200()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if _, err := quake.ScenarioByName("bogus"); err == nil {
		t.Error("bogus scenario accepted")
	}
}

// TestFacadeExtensions drives the extension surface of the facade:
// absorbers, the distributed application, the torus simulator, the
// spark suite, and the distributed CG operator.
func TestFacadeExtensions(t *testing.T) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	mat := quake.SanFernando()
	sys, err := quake.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := quake.BuildAbsorbingDampers(sys, mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Faces == 0 {
		t.Fatal("no absorber faces")
	}

	pt, err := quake.PartitionMesh(m, 4, quake.Multilevel, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := quake.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := quake.NewDist(m, mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	dsim, err := quake.NewDistSim(dist, sys.MassNode, ab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dsim.Run(m.Coords, quake.SimConfig{
		Dt:    sys.StableDt(0.5),
		Steps: 20,
		Source: quake.PointSource{
			Location: quake.Vec3{X: 25, Y: 25, Z: 5}, Direction: quake.Vec3{Z: 1},
			Amplitude: 1, PeakFreq: 0.1, Delay: 12,
		},
		Absorbers: ab,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 20 || res.ComputeSeconds <= 0 {
		t.Errorf("distributed run: %+v", res)
	}

	// Torus simulation through the facade.
	sched, err := quake.ScheduleFromProfile(pr)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := quake.NewTorus(4)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := quake.SimulateTorus(sched, quake.T3E(), tor, quake.TorusConfig{LinkBytesPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if tres.CommTime <= 0 {
		t.Error("no torus comm time")
	}

	// Spark suite.
	suite, err := quake.NewSparkSuite(sys.K)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3*m.NumNodes())
	y1 := make([]float64, len(x))
	y2 := make([]float64, len(x))
	for i := range x {
		x[i] = float64(i % 3)
	}
	suite.BMV(y1, x)
	suite.RMV(y2, x, 2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-9*(1+math.Abs(y1[i])) {
			t.Fatal("spark kernels disagree via facade")
		}
	}

	// Distributed CG through the facade.
	op := quake.DistOperator{D: dist, Shift: 30, MassNode: sys.MassNode}
	b := make([]float64, op.Dim())
	b[0] = 1
	sol := make([]float64, op.Dim())
	cg, err := quake.SolveCG(op, b, sol, quake.CGConfig{MaxIter: 2000, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !cg.Converged {
		t.Error("facade CG did not converge")
	}

	// Overlap and implicit models.
	o := quake.OverlapModel{App: quake.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()},
		FBoundary: pr.FBoundaryMax()}
	t3e := quake.T3E()
	if s := o.Speedup(t3e.Tf, t3e.Tl, t3e.Tw); s < 1 || s > 2 {
		t.Errorf("overlap speedup %g", s)
	}
	if step, _ := quake.ImplicitStep(o.App, 4, 3, t3e.Tf, t3e.Tl, t3e.Tw); step <= 0 {
		t.Error("implicit step non-positive")
	}
}

// TestFacadeReliability drives the fault-injection surface through the
// public API: plan parsing round-trips, a corruption plan is armed and
// healed by SolveCG's self-correction, and a dead PE poisons the Dist
// with an ErrDistPoisoned-matchable error.
func TestFacadeReliability(t *testing.T) {
	plan, err := quake.ParseFaultPlan("seed:3;corrupt:pe=1->0,iter=4,bit=62")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := quake.ParseFaultPlan(plan.String())
	if err != nil || rt.String() != plan.String() {
		t.Fatalf("plan does not round-trip: %q vs %q (%v)", rt, plan, err)
	}
	if _, err := quake.ParseFaultPlan("corrupt:pe=-1"); err == nil {
		t.Fatal("malformed plan accepted")
	}

	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	mat := quake.SanFernando()
	sys, err := quake.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := quake.PartitionMesh(m, 4, quake.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := quake.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := quake.NewDist(m, mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()

	in, err := dist.InjectFaults(plan)
	if err != nil {
		t.Fatal(err)
	}
	op := quake.DistOperator{D: dist, Shift: 20, MassNode: sys.MassNode}
	n := op.Dim()
	b := make([]float64, n)
	b[3] = 1e2
	x := make([]float64, n)
	res, err := quake.SolveCG(op, b, x, quake.CGConfig{
		MaxIter: 4 * n, Tol: 1e-8, CheckEvery: 5, MaxRecoveries: 8,
	})
	if err != nil || !res.Converged {
		t.Fatalf("healing solve through facade: %+v err=%v", res, err)
	}
	if in.Count(quake.FaultKind(0)) < 1 { // Corrupt is kind 0
		t.Fatalf("no corruption injected: total %d", in.Total())
	}
	if res.Detections < 1 || res.Rollbacks+res.Restarts < 1 {
		t.Fatalf("corruption not healed: %+v", res)
	}

	// A dead PE poisons the Dist for good.
	panicPlan, err := quake.ParseFaultPlan("panic:pe=2,iter=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.InjectFaults(panicPlan); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, n)
	if _, err := dist.SMVP(y, x); !errors.Is(err, quake.ErrDistPoisoned) {
		t.Fatalf("expected ErrDistPoisoned, got %v", err)
	}
	if _, err := dist.SMVP(y, x); !errors.Is(err, quake.ErrDistPoisoned) {
		t.Fatalf("poisoned Dist accepted a later kernel: %v", err)
	}
}

// TestFacadeAggregation drives the two-level exchange through the
// public API: fuse a schedule, replay it on both simulators, run the
// aggregated distributed kernel bit-identically, and sweep node sizes.
func TestFacadeAggregation(t *testing.T) {
	s, err := quake.ScenarioByName("sf10")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := quake.PartitionMesh(m, 8, quake.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := quake.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := quake.ScheduleFromProfile(pr)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := quake.AggregateSchedule(sched, quake.ContiguousNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Check(sched); err != nil {
		t.Fatal(err)
	}

	// Extended model and β on the fused leg.
	c, b := agg.InterCB()
	if beta := quake.BetaOf(c, b); beta < 1 || beta >= 2 {
		t.Errorf("fused β = %g", beta)
	}
	t3e := quake.T3E()
	local := quake.LocalParams{Tl: quake.OnNode().Tl, Tw: quake.OnNode().Tw}
	app := quake.AggProperties{
		App:       quake.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()},
		InterBmax: agg.InterBmax(), InterCmax: maxOf(c),
		LocalBmax: 1, LocalCmax: agg.CopiedWords(),
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if tc := quake.AchievedTcAggregated(app, t3e.Tl, t3e.Tw, local); tc <= 0 {
		t.Error("non-positive aggregated Tc")
	}
	if e := quake.AggregatedEfficiency(app, t3e.Tf, t3e.Tl, t3e.Tw, local); e <= 0 || e >= 1 {
		t.Errorf("aggregated efficiency = %g", e)
	}

	// Both simulators accept the plan.
	mres, err := quake.SimulateExchangeAggregated(agg, t3e, quake.OnNode(), quake.NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mres.CommTime <= 0 {
		t.Error("no machine-simulated aggregated time")
	}
	tor, err := quake.NewTorus(agg.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := quake.SimulateTorusAggregated(agg, t3e, quake.OnNode(), tor, quake.TorusConfig{HopLatency: 100e-9})
	if err != nil {
		t.Fatal(err)
	}
	if nres.CommTime <= 0 {
		t.Error("no torus-simulated aggregated time")
	}

	// The distributed kernel with aggregation enabled matches flat.
	mat := quake.SanFernando()
	dist, err := quake.NewDist(m, mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	x := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	flat := make([]float64, len(x))
	if _, err := dist.SMVP(flat, x); err != nil {
		t.Fatal(err)
	}
	if err := dist.SetAggregation(quake.ContiguousNodes(4)); err != nil {
		t.Fatal(err)
	}
	fused := make([]float64, len(x))
	if _, err := dist.SMVP(fused, x); err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if fused[i] != flat[i] {
			t.Fatalf("aggregated SMVP not bit-identical at %d", i)
		}
	}
	if fb, _, on := dist.AggregationStats(); !on || fb <= 0 {
		t.Errorf("aggregation stats: fused=%d enabled=%v", fb, on)
	}

	// Node-size sweep and its table.
	rows, err := quake.AggSweep(s, 8, quake.RCB, []int{1, 2, 4}, quake.TorusConfig{HopLatency: 100e-9})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := quake.AggregationSummary("tradeoff", rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fused B_max") {
		t.Errorf("sweep table missing fused column:\n%s", sb.String())
	}
}

func maxOf(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
