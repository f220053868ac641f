package par

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// The method set solver.CG looks for. It is unexported there; spelling
// it out here makes a drifted signature a compile error in this package
// instead of a silent fall-back to the serial backend.
var _ interface {
	solver.Operator
	Begin(b, prec, x, r, p []float64) error
	End()
	Residual(scrub bool) (rho, rn2 float64, err error)
	Iterate(rho float64, n int, stop func(pap, rn2, rho float64) bool) (its int, pap, rn2, rhoNew float64, err error)
	TrueResidual() (float64, error)
	Save() error
	Restore(xOnly bool) error
	Gather(x, r, p []float64) error
} = Operator{}

// applyOnly hides everything of an operator but Apply, which is how a
// test asks solver.CG for the serial backend on the same Dist.
type applyOnly struct{ op Operator }

func (a applyOnly) Apply(y, x []float64) error { return a.op.Apply(y, x) }
func (a applyOnly) Dim() int                   { return a.op.Dim() }

func never(pap, rn2, rho float64) bool { return false }

func cgRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.37*float64(i)) + 0.1
	}
	return b
}

// begin starts a resident solve by hand and returns ρ entering
// iteration 0.
func begin(t *testing.T, op Operator, b []float64) float64 {
	t.Helper()
	if err := op.Begin(b, nil, make([]float64, len(b)), nil, nil); err != nil {
		t.Fatal(err)
	}
	rho, _, err := op.Residual(false)
	if err != nil {
		t.Fatal(err)
	}
	return rho
}

// TestCGTakesResidentPath: solver.CG on a par.Operator runs the
// iteration on the PEs — the CG vector work shows up in the per-PE
// update accumulator, once per iteration per PE — and on the wrapped
// operator it does not.
func TestCGTakesResidentPath(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	b := cgRHS(op.Dim())
	updates := func() (n int64) {
		for _, c := range obs.Default.Snapshot().PEAccums["par.phase.update.ns"].Count[:4] {
			n += c
		}
		return n
	}
	before := updates()
	res, err := solver.CG(op, b, make([]float64, len(b)), solver.Config{MaxIter: len(b), Tol: 1e-8})
	if err != nil || !res.Converged {
		t.Fatalf("resident solve: %+v, err=%v", res, err)
	}
	if got, want := updates()-before, int64(4*res.Iterations); got != want {
		t.Errorf("update phases observed: %d, want %d (4 PEs × %d iterations)", got, want, res.Iterations)
	}
	before = updates()
	if _, err := solver.CG(applyOnly{op}, b, make([]float64, len(b)), solver.Config{MaxIter: len(b), Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	if got := updates() - before; got != 0 {
		t.Errorf("serial solve observed %d PE update phases", got)
	}
}

// checkReplicas asserts that every replica of every shared node holds
// the same bits as its owner's copy.
func checkReplicas(t *testing.T, d *Dist, what string, vec func(pe int) []float64) {
	t.Helper()
	ref := make([]float64, 3*d.GlobalNodes)
	for pe := 0; pe < d.P; pe++ {
		v := vec(pe)
		for l, g := range d.Nodes[pe] {
			if d.Owner[g] == int32(pe) {
				copy(ref[3*g:3*g+3], v[3*l:3*l+3])
			}
		}
	}
	shared := 0
	for pe := 0; pe < d.P; pe++ {
		v := vec(pe)
		for _, l := range d.Boundary[pe] {
			g := d.Nodes[pe][l]
			shared++
			for c := 0; c < 3; c++ {
				if math.Float64bits(v[3*int(l)+c]) != math.Float64bits(ref[3*int(g)+c]) {
					t.Fatalf("%s: node %d component %d on PE %d holds %x, its owner PE %d holds %x",
						what, g, c, pe, math.Float64bits(v[3*int(l)+c]), d.Owner[g], math.Float64bits(ref[3*int(g)+c]))
				}
			}
		}
	}
	if shared == 0 {
		t.Fatalf("%s: no shared nodes checked", what)
	}
}

// TestReplicasBitEqual is the invariant the canonical summation order
// buys: after integrator steps, and after a burst of CG iterations, all
// replicas of a shared node are bit-equal — on sf10 at widths where
// nodes live on three and more PEs, flat and aggregated.
func TestReplicasBitEqual(t *testing.T) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	mat := quake.Material()
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 8} {
		pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := partition.Analyze(m, pt)
		if err != nil {
			t.Fatal(err)
		}
		threeWay := 0
		for _, pes := range pr.NodePEs {
			if len(pes) >= 3 {
				threeWay++
			}
		}
		if threeWay == 0 {
			t.Fatalf("p=%d: no node resides on three PEs; the test would not see an order difference", p)
		}
		d, err := NewDist(m, mat, pt, pr)
		if err != nil {
			t.Fatal(err)
		}

		sim, err := NewDistSim(d, sys.MassNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fem.SimConfig{Dt: sys.StableDt(0.5), Steps: 3, Source: fem.PointSource{
			Location: m.Coords[len(m.Coords)/2], Direction: geom.V(0, 0, 1), Amplitude: 5, PeakFreq: 2, Delay: 0.5}}
		if _, err := sim.Run(m.Coords, cfg); err != nil {
			t.Fatal(err)
		}
		checkReplicas(t, d, "DistSim u", func(pe int) []float64 { return sim.u[pe] })

		op := Operator{D: d, Shift: 20, MassNode: sys.MassNode}
		b := cgRHS(op.Dim())
		for _, size := range []int{1, 2} {
			if err := d.SetAggregation(comm.ContiguousNodes(size)); err != nil {
				t.Fatal(err)
			}
			rho := begin(t, op, b)
			if its, _, _, _, err := op.Iterate(rho, 7, never); err != nil || its != 7 {
				t.Fatalf("burst: %d iterations, err=%v", its, err)
			}
			for _, vec := range []struct {
				name string
				get  func(v *cgVectors) []float64
			}{
				{"p", func(v *cgVectors) []float64 { return v.p }},
				{"r", func(v *cgVectors) []float64 { return v.r }},
				{"x", func(v *cgVectors) []float64 { return v.x }},
			} {
				checkReplicas(t, d, "CG "+vec.name, func(pe int) []float64 { return vec.get(&d.rt.ws[pe].cg) })
			}
			op.End()
		}
		d.Close()
	}
}

// TestTrueResidualAuditsTheOwners: the iterate an audit certifies is the
// one Gather reports. A replica of x that has parted from its owner —
// what a corrupted partial sum leaves behind when it lands on a PE that
// does not own the node — must not enter the true residual (it would
// agree with the recursive residual, which was stepped on the same
// replicas, and certify an answer that satisfies neither), and the audit
// must leave the replica as it found it.
func TestTrueResidualAuditsTheOwners(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	b := cgRHS(op.Dim())
	rho := begin(t, op, b)
	defer op.End()
	if _, _, _, _, err := op.Iterate(rho, 5, never); err != nil {
		t.Fatal(err)
	}
	clean, err := op.TrueResidual()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, op.Dim())
	if err := op.Gather(x, nil, nil); err != nil {
		t.Fatal(err)
	}
	ax := make([]float64, len(x))
	if err := (applyOnly{op}).Apply(ax, x); err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := range b {
		want += (b[i] - ax[i]) * (b[i] - ax[i])
	}
	if want = math.Sqrt(want); math.Abs(clean-want) > 1e-12*want {
		t.Fatalf("true residual %g, ‖b − A·x‖ of the gathered iterate %g", clean, want)
	}

	pe, l := -1, int32(0)
	for q := 0; q < d.P && pe < 0; q++ {
		for _, bl := range d.Boundary[q] {
			if d.Owner[d.Nodes[q][bl]] != int32(q) {
				pe, l = q, bl
				break
			}
		}
	}
	if pe < 0 {
		t.Fatal("no replica to perturb")
	}
	replica := &d.rt.ws[pe].cg.x[3*l]
	*replica += 1
	parted := *replica
	got, err := op.TrueResidual()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(clean) {
		t.Errorf("true residual %g with a parted replica, %g without: the audit read the replica", got, clean)
	}
	if *replica != parted {
		t.Error("the audit rewrote the replica")
	}
}

// TestCGResidentZeroAlloc pins the hot path: between checkpoint
// boundaries a resident solve allocates nothing — flat and aggregated,
// with telemetry on and an injector armed the way the elastic
// supervisor arms it (a far-future revive, so every hook site runs) —
// and a whole solve spawns no goroutine.
func TestCGResidentZeroAlloc(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	f := newFixture(t)
	for _, aggregated := range []bool{false, true} {
		d, _ := f.dist(t, 4, partition.RCB)
		if aggregated {
			if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.InjectFaults(mustPlan(t, "revive:pe=2,iter=1000000")); err != nil {
			t.Fatal(err)
		}
		op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
		b := cgRHS(op.Dim())

		rho := begin(t, op, b)
		burst := func() {
			var err error
			if _, _, _, rho, err = op.Iterate(rho, 5, never); err != nil {
				t.Fatal(err)
			}
		}
		burst() // steady state
		if avg := testing.AllocsPerRun(10, burst); avg != 0 {
			t.Errorf("resident burst (aggregated=%v): %.1f allocs per 5 iterations, want 0", aggregated, avg)
		}
		op.End()

		x := make([]float64, len(b))
		before := runtime.NumGoroutine()
		spawned := 0
		res, err := solver.CG(op, b, x, solver.Config{MaxIter: len(b), Tol: 1e-8, CheckpointEvery: 10,
			OnCheckpoint: func(*solver.State) {
				if g := runtime.NumGoroutine(); g > before {
					spawned = g - before
				}
			}})
		if err != nil || !res.Converged {
			t.Fatalf("resident solve: %+v, err=%v", res, err)
		}
		if g := runtime.NumGoroutine(); spawned != 0 || g > before {
			t.Errorf("resident solve (aggregated=%v) spawned goroutines: %d during, %d after, %d before", aggregated, spawned, g, before)
		}
	}
}

// TestResidentSolveEndings: however a resident solve ends — converged,
// interrupted, a PE panic, a kill — it releases the Dist (the next solve
// on a live Dist starts) and leaks no goroutine once the Dist is closed.
func TestResidentSolveEndings(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	for _, tc := range []struct {
		name      string
		plan      string
		interrupt bool
		wantErr   error
		killed    bool
	}{
		{name: "converged"},
		{name: "interrupt", interrupt: true, wantErr: solver.ErrInterrupted},
		{name: "panic", plan: "panic:pe=1,iter=9", wantErr: ErrPoisoned},
		{name: "kill", plan: "kill:pe=3,iter=14", wantErr: ErrPoisoned, killed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := f.dist(t, 4, partition.RCB)
			defer d.Close()
			if tc.plan != "" {
				if _, err := d.InjectFaults(mustPlan(t, tc.plan)); err != nil {
					t.Fatal(err)
				}
			}
			op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
			b := cgRHS(op.Dim())
			cfg := solver.Config{MaxIter: len(b), Tol: 1e-8, CheckpointEvery: 4, OnCheckpoint: func(*solver.State) {}}
			if tc.interrupt {
				cfg.Interrupt = func(iter int) bool { return iter >= 8 }
			}
			res, err := solver.CG(op, b, make([]float64, len(b)), cfg)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("solve ended with %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && !res.Converged {
				t.Fatalf("solve did not converge: %+v", res)
			}
			var pf *PEFaultError
			if errors.As(err, &pf) {
				_, isKill := pf.Val.(*fault.Killed)
				if isKill != tc.killed {
					t.Errorf("fault value %T, killed=%v", pf.Val, tc.killed)
				}
				// Plan time is SMVP count: the initial residual is kernel
				// 1, iteration k's multiply kernel k+2.
				want := int64(9)
				if tc.killed {
					want = 14
				}
				if pf.Iter != want {
					t.Errorf("fault located at kernel %d, want %d", pf.Iter, want)
				}
				return
			}
			// The Dist was released: a second solve runs, on either path.
			if res, err := solver.CG(op, b, make([]float64, len(b)), solver.Config{MaxIter: len(b), Tol: 1e-8}); err != nil || !res.Converged {
				t.Fatalf("second solve on the same Dist: %+v, err=%v", res, err)
			}
		})
	}
}

// TestPanicBetweenCrossingsDrains: a PE that dies in the vector update —
// after the exchange crossing, before the reduction crossing — must not
// strand its peers at the second crossing, flat or aggregated.
func TestPanicBetweenCrossingsDrains(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	for _, aggregated := range []bool{false, true} {
		d, _ := f.dist(t, 6, partition.RCB)
		if aggregated {
			if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
				t.Fatal(err)
			}
		}
		op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
		rho := begin(t, op, cgRHS(op.Dim()))
		if _, _, _, _, err := op.Iterate(rho, 3, never); err != nil {
			t.Fatal(err)
		}
		d.rt.ws[2].cg.r = nil // PE 2's update now indexes out of range
		done := make(chan error, 1)
		go func() {
			_, _, _, _, err := op.Iterate(rho, 3, never)
			done <- err
		}()
		select {
		case err := <-done:
			var pf *PEFaultError
			if !errors.As(err, &pf) || pf.PE != 2 {
				t.Fatalf("aggregated=%v: burst ended with %v, want a PE 2 fault", aggregated, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("aggregated=%v: peers stranded at the reduction crossing", aggregated)
		}
		op.End()
		d.Close()
	}
}

// TestCloseAndDisarmRaceResidentSolve: Close and InjectFaults(nil) take
// effect between two bursts of a running resident solve. Close ends the
// solve with the closed-Dist error; disarming lets it finish.
func TestCloseAndDisarmRaceResidentSolve(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	for _, closing := range []bool{false, true} {
		d, _ := f.dist(t, 4, partition.RCB)
		if _, err := d.InjectFaults(mustPlan(t, "revive:pe=2,iter=1000000")); err != nil {
			t.Fatal(err)
		}
		op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
		b := cgRHS(op.Dim())
		// No checkpointing: maxBurst alone keeps the Dist responsive. The
		// tolerance is out of reach, so only Close or MaxIter ends it.
		var started atomic.Bool
		type outcome struct {
			res *solver.Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			started.Store(true)
			res, err := solver.CG(op, b, make([]float64, len(b)), solver.Config{MaxIter: 2000, Tol: 1e-300})
			done <- outcome{res, err}
		}()
		for !started.Load() {
			runtime.Gosched()
		}
		t0 := time.Now()
		if closing {
			d.Close()
		} else if _, err := d.InjectFaults(nil); err != nil && !errors.Is(err, errClosed) {
			t.Fatal(err)
		}
		waited := time.Since(t0)
		out := <-done
		if closing {
			if !errors.Is(out.err, errClosed) {
				t.Errorf("solve on a closed Dist ended with %v, want %v", out.err, errClosed)
			}
		} else if out.err != nil || out.res.Iterations != 2000 {
			t.Errorf("disarmed solve: %+v, err=%v", out.res, out.err)
		}
		// One burst on this mesh is a few milliseconds; a caller that had
		// to wait for the whole 2000-iteration solve waits far longer.
		if waited > 2*time.Second {
			t.Errorf("closing=%v: waited %v for a running solve", closing, waited)
		}
		d.Close()
	}
}
