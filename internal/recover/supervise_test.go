package recover

import (
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// superviseFixtureSolve runs Supervise under the watchdog and returns
// the outcome.
func superviseFixtureSolve(t *testing.T, d *par.Dist, sys *System, b, x []float64, cfg SuperviseConfig) *SuperviseOutcome {
	t.Helper()
	type answer struct {
		out *SuperviseOutcome
		err error
	}
	done := make(chan answer, 1)
	go func() {
		out, err := Supervise(d, sys, b, x, cfg)
		done <- answer{out, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("supervised solve failed: %v", a.err)
		}
		return a.out
	case <-time.After(watchdog):
		t.Fatal("supervised solve hung")
		return nil
	}
}

// certify checks ‖b − A·x‖/‖b‖ ≤ tol on an independent full-width
// reference operator — the recovered solve never grades its own
// homework.
func certify(t *testing.T, f *fixture, refD *par.Dist, b, x []float64, tol float64) {
	t.Helper()
	n := len(b)
	ax := make([]float64, n)
	if err := (par.Operator{D: refD, Shift: 20, MassNode: f.sys.MassNode}).Apply(ax, x); err != nil {
		t.Fatal(err)
	}
	var rr, bb float64
	for i := range ax {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if rel := math.Sqrt(rr) / math.Sqrt(bb); rel > tol {
		t.Fatalf("supervised solution residual %.3g exceeds the fault-free tolerance %.1g", rel, tol)
	}
}

// TestKillReviveRoundTripConverges is the tentpole acceptance test: a
// solve that loses PE 5 to a kill, shrinks to 7, revives the slot, and
// grows back to 8 mid-solve must converge and certify against an
// independent full-width reference — the elastic analogue of
// TestKillMidSolveConverges.
func TestKillReviveRoundTripConverges(t *testing.T) {
	f := newFixture(t)
	const tol = 1e-10
	b := f.rhs()
	n := len(b)

	refD := f.dist(t, f.partition(t, 8))
	defer refD.Close()

	pt := f.partition(t, 8)
	d := f.dist(t, pt)
	x := make([]float64, n)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
	out := superviseFixtureSolve(t, d, sys, b, x, SuperviseConfig{
		Solver: solver.Config{MaxIter: 6 * n, Tol: tol, CheckpointEvery: 5},
		Plan:   mustPlan(t, "kill:pe=5,iter=25;revive:pe=5,iter=45"),
	})
	defer out.Dist.Close()

	if out.Shrinks != 1 || len(out.DeadPEs) != 1 || out.DeadPEs[0] != 5 {
		t.Fatalf("shrink path: shrinks=%d dead=%v", out.Shrinks, out.DeadPEs)
	}
	if out.Grows != 1 || len(out.RevivedPEs) != 1 || out.RevivedPEs[0] != 5 {
		t.Fatalf("grow path: grows=%d revived=%v", out.Grows, out.RevivedPEs)
	}
	if out.Part.P != 8 || out.Dist.P != 8 {
		t.Fatalf("final width: part %d, dist %d, want 8 (round trip)", out.Part.P, out.Dist.P)
	}
	if !out.Result.Converged {
		t.Fatalf("supervised solve did not converge: %+v", out.Result)
	}
	// Once the last plan event is consumed the injector disarms and the
	// global count freezes at the final transition's checkpoint.
	if out.Kernels < 45 {
		t.Fatalf("global kernel count %d never reached the revive iter", out.Kernels)
	}
	certify(t, f, refD, b, x, tol)
}

// TestSuperviseAggregated: the two-level aggregation map survives the
// kill→shrink→revive→grow round trip — recomposed past the dead slot,
// then across the insertion, and reinstalled on every rebuilt Dist.
func TestSuperviseAggregated(t *testing.T) {
	f := newFixture(t)
	b := f.rhs()
	n := len(b)
	pt := f.partition(t, 8)
	d := f.dist(t, pt)
	nodeOf := comm.ContiguousNodes(2)
	if err := d.SetAggregation(nodeOf); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode, NodeOf: nodeOf}
	out := superviseFixtureSolve(t, d, sys, b, x, SuperviseConfig{
		Solver: solver.Config{MaxIter: 6 * n, Tol: 1e-10, CheckpointEvery: 5},
		Plan:   mustPlan(t, "kill:pe=2,iter=12;revive:pe=2,iter=30"),
	})
	defer out.Dist.Close()
	if out.Shrinks != 1 || out.Grows != 1 || out.Dist.P != 8 {
		t.Fatalf("round trip: shrinks=%d grows=%d width=%d", out.Shrinks, out.Grows, out.Dist.P)
	}
	if _, _, enabled := out.Dist.AggregationStats(); !enabled {
		t.Fatal("aggregation was not reinstalled on the final Dist")
	}
}

// soakFlopLambda bounds the flop λ TestMultiFaultSoak may end with. In
// 24 -race runs beside `make race` the final partition read 1.087–1.293
// (the old wall-clock λ read 1.09–6.07 in the same runs, ≥ 3 in 11); an
// 8-way partition of the fixture with 40 % of its elements on PE 0
// (skewedPartition) reads 3.1.
const soakFlopLambda = 1.5

// TestMultiFaultSoak is the chaos soak: two different PEs die and
// revive in one solve with rebalancing armed. The solve must converge,
// the final partition's flop λ must sit below soakFlopLambda, and
// closing the final Dist must leak no goroutines.
func TestMultiFaultSoak(t *testing.T) {
	prevEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)

	testutil.VerifyNoLeaks(t)

	f := newFixture(t)
	const tol = 1e-10
	b := f.rhs()
	n := len(b)

	refD := f.dist(t, f.partition(t, 8))

	pt := f.partition(t, 8)
	d := f.dist(t, pt)
	x := make([]float64, n)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
	out := superviseFixtureSolve(t, d, sys, b, x, SuperviseConfig{
		Solver:    solver.Config{MaxIter: 6 * n, Tol: tol, CheckpointEvery: 5},
		Plan:      mustPlan(t, "kill:pe=5,iter=20;revive:pe=5,iter=35;kill:pe=2,iter=50;revive:pe=2,iter=65"),
		Rebalance: true,
	})

	if out.Shrinks != 2 || len(out.DeadPEs) != 2 {
		t.Fatalf("shrinks=%d dead=%v, want two distinct kills absorbed", out.Shrinks, out.DeadPEs)
	}
	if out.DeadPEs[0] != 5 || out.DeadPEs[1] != 2 {
		t.Fatalf("dead PEs %v, want [5 2]", out.DeadPEs)
	}
	if out.Grows != 2 || len(out.RevivedPEs) != 2 {
		t.Fatalf("grows=%d revived=%v, want two revivals", out.Grows, out.RevivedPEs)
	}
	if out.Part.P != 8 || out.Dist.P != 8 {
		t.Fatalf("final width %d, want 8 after kill+revive ×2", out.Dist.P)
	}
	if !out.Result.Converged {
		t.Fatalf("soak solve did not converge: %+v", out.Result)
	}
	certify(t, f, refD, b, x, tol)

	// The rebalancer measured windows throughout; the run must end
	// without a gross straggler. That is asserted on the work the final
	// PEs were handed — λ of their flop counts, as
	// TestRebalanceReducesMeasuredLambda does — not on the last measured
	// λ: the fixture's kernels take microseconds, so a wall-clock window
	// measures the scheduler, and read ≥ 3 beside a -race run of other
	// packages.
	if out.FinalLambda <= 0 {
		t.Fatal("rebalancing was armed but no window was ever measured")
	}
	flops := analyze.ImbalanceOf(out.Dist.FlopsPerPE())
	if flops.Lambda >= soakFlopLambda {
		t.Fatalf("final flop λ = %.3f (PE %d), soak ended badly imbalanced", flops.Lambda, flops.Straggler)
	}

	// No leaked goroutines once every Dist is closed — checked by the
	// VerifyNoLeaks cleanup registered at the top.
	refD.Close()
	out.Dist.Close()
}

// TestSupervisePlainSolve: with no plan and no rebalancing, Supervise
// degenerates to a plain checkpointed solve.
func TestSupervisePlainSolve(t *testing.T) {
	f := newFixture(t)
	b := f.rhs()
	n := len(b)
	pt := f.partition(t, 4)
	d := f.dist(t, pt)
	x := make([]float64, n)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
	out := superviseFixtureSolve(t, d, sys, b, x, SuperviseConfig{
		Solver: solver.Config{MaxIter: 6 * n, Tol: 1e-10, CheckpointEvery: 5},
	})
	defer out.Dist.Close()
	if out.Shrinks != 0 || out.Grows != 0 || out.Migrations != 0 {
		t.Fatalf("fault-free supervise transitioned: %+v", out)
	}
	if !out.Result.Converged {
		t.Fatal("fault-free supervised solve did not converge")
	}
}

// TestSMVPZeroAllocWithRebalancingArmed pins the acceptance criterion
// that arming elastic recovery costs the steady-state kernel nothing:
// with metrics on and a revive-bearing fault plan armed, SMVP still
// runs at zero heap allocations per op. (The rebalancer itself runs at
// checkpoint boundaries, off the kernel path.)
func TestSMVPZeroAllocWithRebalancingArmed(t *testing.T) {
	f := newFixture(t)
	pt := f.partition(t, 4)
	d := f.dist(t, pt)
	defer d.Close()
	if _, err := d.InjectFaults(mustPlan(t, "revive:pe=2,iter=1000000")); err != nil {
		t.Fatal(err)
	}
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = float64(i%5) * 0.5
	}
	run := func() {
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
	}
	run() // steady state: buffers and goroutines already live
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Errorf("SMVP with rebalancing armed: %.1f allocs/op, want 0", avg)
	}
}

// TestSuperviseStop pins the Stop hook: the supervisor must hand back
// the partial state with ErrInterrupted instead of absorbing the
// interrupt and resuming — even mid-plan, after a kill has already been
// absorbed. This is the wall-deadline path the serving layer rides.
func TestSuperviseStop(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	b := f.rhs()
	n := len(b)

	pt := f.partition(t, 4)
	d := f.dist(t, pt)
	x := make([]float64, n)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}

	var stop atomic.Bool
	out, err := Supervise(d, sys, b, x, SuperviseConfig{
		Solver: solver.Config{
			MaxIter: 6 * n, Tol: 1e-12, CheckpointEvery: 5,
			OnCheckpoint: func(st *solver.State) {
				if st.Iter >= 20 {
					stop.Store(true)
				}
			},
		},
		Plan: mustPlan(t, "kill:pe=2,iter=10"),
		Stop: stop.Load,
	})
	if !errors.Is(err, solver.ErrInterrupted) {
		t.Fatalf("stopped supervise returned %v, want solver.ErrInterrupted", err)
	}
	if out.Shrinks != 1 {
		t.Fatalf("the kill before the stop was not absorbed: shrinks=%d", out.Shrinks)
	}
	if out.Result == nil {
		t.Fatal("stopped supervise carries no partial result")
	}
	if out.Result.Converged {
		t.Fatal("stopped supervise claims convergence")
	}
	out.Dist.Close()
}

// TestSuperviseRefusesCallerInterrupt: Solver.Interrupt is the
// supervisor's own hook, so a caller that sets one is refused before
// any kernel runs; Stop is how a caller ends a supervised solve.
func TestSuperviseRefusesCallerInterrupt(t *testing.T) {
	f := newFixture(t)
	b := f.rhs()
	pt := f.partition(t, 2)
	d := f.dist(t, pt)
	defer d.Close()
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
	out, err := Supervise(d, sys, b, make([]float64, len(b)), SuperviseConfig{
		Solver: solver.Config{MaxIter: 10, Tol: 1e-8, Interrupt: func(int) bool { return false }},
	})
	if err == nil || !strings.Contains(err.Error(), "Stop") {
		t.Fatalf("caller Interrupt accepted: err=%v", err)
	}
	if out == nil || out.Result != nil || out.Dist != d {
		t.Fatalf("refused supervise ran or lost the operator: %+v", out)
	}
}

// TestSuperviseDrainsWriter: whichever way Supervise returns, the newest
// snapshot it delivered is decodable on disk at that moment — the writer
// that lands snapshots off the solver's goroutine is drained on every
// exit, and its goroutine is gone. A store that cannot write costs the
// solve nothing but recover.checkpoint.errors.
func TestSuperviseDrainsWriter(t *testing.T) {
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)

	f := newFixture(t)
	b := f.rhs()
	n := len(b)
	pt := f.partition(t, 4)
	noWorker := errors.New("no worker left")
	replacing := func(int, int) (*par.Dist, error) { return f.dist(t, pt), nil }

	for _, tc := range []struct {
		name string
		// tune adjusts the config; delivered reads the newest iteration
		// handed to OnCheckpoint so far.
		tune    func(cfg *SuperviseConfig, delivered func() int)
		wantErr func(error) bool
		// brokenStore removes the checkpoint directory under the Store.
		brokenStore bool
	}{
		{name: "converged"},
		{name: "stop mid-solve",
			tune: func(cfg *SuperviseConfig, delivered func() int) {
				cfg.Stop = func() bool { return delivered() >= 20 }
			},
			wantErr: func(err error) bool { return errors.Is(err, solver.ErrInterrupted) }},
		{name: "kill, shrink",
			tune: func(cfg *SuperviseConfig, _ func() int) { cfg.Plan = mustPlan(t, "kill:pe=2,iter=12") }},
		{name: "kill, replace",
			tune: func(cfg *SuperviseConfig, _ func() int) {
				cfg.Plan, cfg.Replace = mustPlan(t, "kill:pe=2,iter=12"), replacing
			}},
		{name: "loss past the bound",
			tune: func(cfg *SuperviseConfig, _ func() int) {
				cfg.Plan, cfg.MaxShrinks = mustPlan(t, "kill:pe=2,iter=12"), -1
			},
			wantErr: func(err error) bool { _, killed := DeadPE(err); return killed }},
		{name: "replace fails",
			tune: func(cfg *SuperviseConfig, _ func() int) {
				cfg.Plan = mustPlan(t, "kill:pe=2,iter=12")
				cfg.Replace = func(int, int) (*par.Dist, error) { return nil, noWorker }
			},
			wantErr: func(err error) bool { return errors.Is(err, noWorker) }},
		{name: "store cannot write", brokenStore: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			store, err := NewStore(t.TempDir() + "/ck")
			if err != nil {
				t.Fatal(err)
			}
			store.Keep = 3
			if tc.brokenStore {
				if err := os.RemoveAll(store.Dir()); err != nil {
					t.Fatal(err)
				}
			}
			var newest atomic.Int64
			snapshots := 0
			cfg := SuperviseConfig{
				Solver: solver.Config{MaxIter: 6 * n, Tol: 1e-10, CheckpointEvery: 5,
					OnCheckpoint: func(st *solver.State) { newest.Store(int64(st.Iter)); snapshots++ }},
				Store: store, MeshID: 7,
			}
			if tc.tune != nil {
				tc.tune(&cfg, func() int { return int(newest.Load()) })
			}
			errs0 := ckptErrors.Value()
			sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
			out, err := Supervise(f.dist(t, pt), sys, b, make([]float64, n), cfg)
			// Read the disk before anything else can run.
			ck, _, lerr := store.Latest()
			if out.Dist != nil && tc.name != "replace fails" { // there the supervisor closed the last Dist itself
				out.Dist.Close()
			}
			if tc.wantErr == nil {
				if err != nil || !out.Result.Converged {
					t.Fatalf("solve: %+v, %v", out.Result, err)
				}
			} else if !tc.wantErr(err) {
				t.Fatalf("solve returned %v", err)
			}
			if snapshots < 3 {
				t.Fatalf("only %d snapshots delivered; the case proves nothing", snapshots)
			}
			errs := ckptErrors.Value() - errs0
			if tc.brokenStore {
				if errs != int64(snapshots) {
					t.Fatalf("%d of %d failed writes counted under recover.checkpoint.errors", errs, snapshots)
				}
				return
			}
			if errs != 0 {
				t.Fatalf("recover.checkpoint.errors advanced by %d", errs)
			}
			if lerr != nil || ck.Iter != newest.Load() || ck.MeshID != 7 {
				t.Fatalf("on disk at return: %+v, %v; the newest snapshot delivered was iteration %d", ck, lerr, newest.Load())
			}
		})
	}
}

// TestCheckpointHandOffZeroAlloc: handing a snapshot to the writer costs
// the solver's goroutine no allocation, telemetry on — the Checkpoint
// crosses the channel by value and the State's slices by reference.
func TestCheckpointHandOffZeroAlloc(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	// A writer whose far side only receives, so the count is the near
	// side's alone.
	w := &ckptWriter{ch: make(chan Checkpoint, 1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for range w.ch {
		}
	}()
	defer w.drain()
	st := &solver.State{Iter: 10, X: make([]float64, 64), R: make([]float64, 64), P: make([]float64, 64)}
	elemPE := make([]int32, 32)
	if avg := testing.AllocsPerRun(100, func() {
		w.put(Checkpoint{MeshID: 7, P: 4, ElemPE: elemPE, Iter: int64(st.Iter), Rho: st.Rho,
			X: st.X, R: st.R, PDir: st.P, FaultIter: 12})
	}); avg != 0 {
		t.Errorf("checkpoint hand-off: %.1f allocs/op, want 0", avg)
	}
}
