package solver_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/partition"
	. "repro/internal/solver"
)

// Every behaviour of the control loop — self-healing, hard errors,
// checkpoint/resume, interrupts — is pinned once, here, and run over
// both backends: serial on a Shifted operator, and resident on a 4-PE
// par.Operator over the same matrix. Faults are placed by kernel index
// (the 1-based count of operator applications since the solve began),
// which means the same thing on both: the serial harness corrupts the
// output of that Apply call, the resident one arms a fault plan whose
// time is that count.

const sigma = 10

type harness struct {
	name string
	n    int
	prec []float64
	// clean is the fault-free operator.
	clean func(t *testing.T) Operator
	// faulty returns an operator that corrupts the given kernels, or
	// every kernel when none is named.
	faulty func(t *testing.T, kernels ...int) Operator
	// dying returns an operator that fails at the given kernel, and the
	// error errors.Is must find in what CG returns.
	dying func(t *testing.T, kernel int) (Operator, error)
}

// corruptingOp corrupts the output of chosen Apply calls, modelling the
// silent data faults the distributed runtime's injector produces at the
// exchange boundary; failAt > 0 makes it error from that call on,
// modelling a Dist poisoned mid-solve.
type corruptingOp struct {
	Operator
	calls   int
	corrupt map[int]bool
	every   bool
	failAt  int
	err     error
}

func (c *corruptingOp) Apply(y, x []float64) error {
	c.calls++
	if c.failAt > 0 && c.calls >= c.failAt {
		return c.err
	}
	if err := c.Operator.Apply(y, x); err != nil {
		return err
	}
	if c.every || c.corrupt[c.calls] {
		y[0] += 1e9
	}
	return nil
}

var errSentinel = errors.New("runtime poisoned")

func harnesses(t *testing.T) []harness {
	t.Helper()
	sys := BuildSystem(t)
	a := Shifted{K: sys.K, MassNode: sys.MassNode, Sigma: sigma}
	prec := a.Diagonal()
	for i, v := range prec {
		prec[i] = 1 / v
	}
	serial := harness{
		name: "serial", n: a.Dim(), prec: prec,
		clean: func(*testing.T) Operator { return a },
		faulty: func(_ *testing.T, kernels ...int) Operator {
			op := &corruptingOp{Operator: a, every: len(kernels) == 0, corrupt: map[int]bool{}}
			for _, k := range kernels {
				op.corrupt[k] = true
			}
			return op
		},
		dying: func(_ *testing.T, kernel int) (Operator, error) {
			return &corruptingOp{Operator: a, failAt: kernel, err: errSentinel}, errSentinel
		},
	}
	resident := harness{
		name: "resident", n: a.Dim(), prec: prec,
		clean: func(t *testing.T) Operator { return residentOp(t, sys, "") },
		faulty: func(t *testing.T, kernels ...int) Operator {
			// Toward PE 0, which owns every node it shares, so the flipped
			// word always reaches a value the reductions count; bit 62 makes
			// it drastic.
			if len(kernels) == 0 {
				return residentOp(t, sys, "corrupt:pe=1->0,bit=62")
			}
			var plan []string
			for _, k := range kernels {
				plan = append(plan, fmt.Sprintf("corrupt:pe=1->0,iter=%d,bit=62", k))
			}
			return residentOp(t, sys, strings.Join(plan, ";"))
		},
		dying: func(t *testing.T, kernel int) (Operator, error) {
			return residentOp(t, sys, fmt.Sprintf("panic:pe=2,iter=%d", kernel)), par.ErrPoisoned
		},
	}
	return []harness{serial, resident}
}

// residentOp builds a fresh 4-PE distributed operator over the fixture
// mesh, armed with plan when it is not empty.
func residentOp(t *testing.T, sys *fem.System, plan string) Operator {
	t.Helper()
	m := sys.Mesh
	pt, err := partition.PartitionMesh(m, 4, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := par.NewDist(m, FixtureMaterial(), pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if plan != "" {
		p, err := fault.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InjectFaults(p); err != nil {
			t.Fatal(err)
		}
	}
	return par.Operator{D: d, Shift: sigma, MassNode: sys.MassNode}
}

func eachBackend(t *testing.T, f func(t *testing.T, h harness)) {
	for _, h := range harnesses(t) {
		t.Run(h.name, func(t *testing.T) { f(t, h) })
	}
}

func solveRHS(n int) []float64 {
	b := make([]float64, n)
	b[2] = 50
	b[n-1] = -20
	return b
}

func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// TestHealingRecoversFromCorruption corrupts two operator applications
// mid-solve and requires self-healing CG to detect, recover, and reach
// the fault-free answer with a certified true residual.
func TestHealingRecoversFromCorruption(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		b := solveRHS(h.n)
		clean := make([]float64, h.n)
		if res, err := CG(h.clean(t), b, clean, Config{MaxIter: 6 * h.n, Tol: 1e-10}); err != nil || !res.Converged {
			t.Fatalf("clean solve: %+v err=%v", res, err)
		}
		healed := make([]float64, h.n)
		res, err := CG(h.faulty(t, 4, 19), b, healed, Config{MaxIter: 6 * h.n, Tol: 1e-10, CheckEvery: 5, MaxRecoveries: 8})
		if err != nil {
			t.Fatalf("healing solve: %v", err)
		}
		if !res.Converged {
			t.Fatalf("healing solve did not converge: %+v", res)
		}
		if res.Detections < 1 || res.Rollbacks+res.Restarts < 1 {
			t.Fatalf("corruption went unnoticed: %+v", res)
		}
		var scale float64
		for _, v := range clean {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range clean {
			if math.Abs(healed[i]-clean[i]) > 1e-6*(1+scale) {
				t.Fatalf("healed solution differs at %d: %g vs %g", i, healed[i], clean[i])
			}
		}
	})
}

// TestHealingEscalatesToRestart feeds a corruption burst dense enough
// that the first rollback lands inside it: the repeat detection must
// escalate to a Krylov restart rather than looping on the checkpoint.
func TestHealingEscalatesToRestart(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		op := h.faulty(t, 8, 9, 10, 11, 12, 13, 14, 15, 16)
		res, err := CG(op, solveRHS(h.n), make([]float64, h.n), Config{MaxIter: 6 * h.n, Tol: 1e-10, CheckEvery: 4, MaxRecoveries: 12})
		if err != nil {
			t.Fatalf("healing solve: %v", err)
		}
		if !res.Converged || res.Restarts < 1 {
			t.Fatalf("expected convergence via ≥1 restart: %+v", res)
		}
	})
}

// TestHealingBounded: an operator corrupting every application can
// never be outrun; the solve must fail with the recovery budget
// exhausted rather than loop or return a wrong answer.
func TestHealingBounded(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		res, err := CG(h.faulty(t), solveRHS(h.n), make([]float64, h.n), Config{MaxIter: 6 * h.n, Tol: 1e-10, CheckEvery: 3, MaxRecoveries: 4})
		if err == nil {
			t.Fatalf("persistently corrupted solve succeeded: %+v", res)
		}
		if !strings.Contains(err.Error(), "recoveries") {
			t.Fatalf("unexpected error: %v", err)
		}
		if res.Rollbacks+res.Restarts != 4 {
			t.Fatalf("recovery budget not honored: %+v", res)
		}
	})
}

// nanOp hands CG a NaN in the product of one chosen Apply call. Only the
// serial backend can be fed one: the fault grammar flips single bits,
// which never yields a NaN. What happens next is the control loop's
// business, and that is shared.
type nanOp struct {
	Operator
	calls, at int
}

func (o *nanOp) Apply(y, x []float64) error {
	o.calls++
	err := o.Operator.Apply(y, x)
	if o.calls == o.at {
		y[0] = math.NaN()
	}
	return err
}

// TestNonFinite: with self-healing disarmed, a NaN from the operator
// must surface as a hard error, not an endless iteration; with it
// armed, the same NaN is detected and recovered.
func TestNonFinite(t *testing.T) {
	sys := BuildSystem(t)
	a := Shifted{K: sys.K, MassNode: sys.MassNode, Sigma: sigma}
	n := a.Dim()
	b := solveRHS(n)
	if _, err := CG(&nanOp{Operator: a, at: 3}, b, make([]float64, n), Config{MaxIter: 6 * n, Tol: 1e-10}); err == nil {
		t.Fatal("NaN-corrupted solve without healing returned no error")
	}
	res, err := CG(&nanOp{Operator: a, at: 3}, b, make([]float64, n), Config{MaxIter: 6 * n, Tol: 1e-10, CheckEvery: 5})
	if err != nil || !res.Converged {
		t.Fatalf("NaN with healing: %+v err=%v", res, err)
	}
	if res.Detections < 1 {
		t.Fatalf("NaN went undetected: %+v", res)
	}
}

// TestOperatorErrorPropagates: an operator failure aborts the solve —
// with and without healing — and is wrapped for errors.Is.
func TestOperatorErrorPropagates(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		for _, cfg := range []Config{
			{MaxIter: 6 * h.n, Tol: 1e-10},
			{MaxIter: 6 * h.n, Tol: 1e-10, CheckEvery: 5},
		} {
			op, want := h.dying(t, 7)
			if _, err := CG(op, solveRHS(h.n), make([]float64, h.n), cfg); !errors.Is(err, want) {
				t.Fatalf("CheckEvery=%d: operator error not propagated: %v", cfg.CheckEvery, err)
			}
		}
	})
}

// TestHealingZeroOverheadPath: CheckEvery=0 must run the classic
// iteration — no extra operator applications, no checkpoint traffic.
func TestHealingZeroOverheadPath(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		res, err := CG(h.clean(t), solveRHS(h.n), make([]float64, h.n), Config{MaxIter: 6 * h.n, Tol: 1e-9})
		if err != nil || !res.Converged {
			t.Fatalf("plain solve: %+v err=%v", res, err)
		}
		if res.SMVPs != res.Iterations+1 {
			t.Fatalf("disarmed solve performed extra operator applications: %+v", res)
		}
		if res.Detections != 0 || res.Rollbacks != 0 || res.Restarts != 0 {
			t.Fatalf("disarmed solve reported recovery activity: %+v", res)
		}
	})
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s differs at %d: %x vs %x", what, i, got[i], want[i])
		}
	}
}

// TestCGResumeBitIdentical is the checkpoint/restart contract: a solve
// interrupted at a durable checkpoint and resumed from it must retrace
// the uninterrupted run bit for bit — identical solution bits,
// identical final residual, identical total iteration count. This is
// what lets a crashed quakesim pick up from disk with no numerical
// drift.
func TestCGResumeBitIdentical(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		a, n := h.clean(t), h.n
		b := randRHS(n, 11)
		cfg := Config{MaxIter: 4 * n, Tol: 1e-10}

		// Reference: uninterrupted solve, recording every 7th-iteration state.
		var states []*State
		ref := make([]float64, n)
		refCfg := cfg
		refCfg.CheckpointEvery = 7
		refCfg.OnCheckpoint = func(s *State) { states = append(states, s) }
		refRes, err := CG(a, b, ref, refCfg)
		if err != nil || !refRes.Converged {
			t.Fatalf("reference solve: converged=%v err=%v", refRes != nil && refRes.Converged, err)
		}
		if refRes.Checkpoints != len(states) || len(states) < 3 {
			t.Fatalf("checkpoints: counted %d, captured %d", refRes.Checkpoints, len(states))
		}
		if states[0].Iter != 0 || states[1].Iter != 7 {
			t.Fatalf("checkpoint iterations %d, %d; want 0, 7", states[0].Iter, states[1].Iter)
		}

		// Resume from a mid-solve snapshot; the caller's x is ignored.
		got := make([]float64, n)
		resumeCfg := cfg
		resumeCfg.Resume = states[len(states)/2]
		gotRes, err := CG(a, b, got, resumeCfg)
		if err != nil || !gotRes.Converged {
			t.Fatalf("resumed solve: converged=%v err=%v", gotRes != nil && gotRes.Converged, err)
		}
		if gotRes.Iterations != refRes.Iterations {
			t.Fatalf("resumed run took %d total iterations, uninterrupted took %d", gotRes.Iterations, refRes.Iterations)
		}
		if gotRes.Residual != refRes.Residual {
			t.Fatalf("final residuals differ: %x vs %x", gotRes.Residual, refRes.Residual)
		}
		sameBits(t, "resumed solution", got, ref)

		// Resume also composes with self-healing and preconditioning.
		var pStates []*State
		pRef := make([]float64, n)
		pCfg := Config{MaxIter: 4 * n, Tol: 1e-10, Precondition: h.prec, CheckEvery: 5,
			CheckpointEvery: 6, OnCheckpoint: func(s *State) { pStates = append(pStates, s) }}
		pRefRes, err := CG(a, b, pRef, pCfg)
		if err != nil || !pRefRes.Converged {
			t.Fatalf("preconditioned reference: converged=%v err=%v", pRefRes != nil && pRefRes.Converged, err)
		}
		pGot := make([]float64, n)
		pResume := Config{MaxIter: 4 * n, Tol: 1e-10, Precondition: h.prec, CheckEvery: 5,
			Resume: pStates[len(pStates)/2]}
		pGotRes, err := CG(a, b, pGot, pResume)
		if err != nil || !pGotRes.Converged {
			t.Fatalf("preconditioned resume: converged=%v err=%v", pGotRes != nil && pGotRes.Converged, err)
		}
		sameBits(t, "preconditioned resumed solution", pGot, pRef)
	})
}

// TestCGInterruptResume pins the cooperative-pause contract the elastic
// supervisor relies on: Config.Interrupt firing at a checkpoint stops
// the solve with ErrInterrupted, x holds the iterate of that
// checkpoint, and resuming from the snapshot just delivered completes
// with bit-identical results to an uninterrupted run.
func TestCGInterruptResume(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		a, n := h.clean(t), h.n
		b := randRHS(n, 29)
		cfg := Config{MaxIter: 4 * n, Tol: 1e-10}

		ref := make([]float64, n)
		refRes, err := CG(a, b, ref, cfg)
		if err != nil || !refRes.Converged {
			t.Fatalf("reference solve: converged=%v err=%v", refRes != nil && refRes.Converged, err)
		}

		var last *State
		intCfg := cfg
		intCfg.CheckpointEvery = 5
		intCfg.OnCheckpoint = func(s *State) { last = s }
		intCfg.Interrupt = func(iter int) bool { return iter >= 10 }
		got := make([]float64, n)
		res, err := CG(a, b, got, intCfg)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupted solve: err=%v, want ErrInterrupted", err)
		}
		if res.Converged {
			t.Fatal("interrupted solve reported convergence")
		}
		if last == nil || last.Iter != 10 {
			t.Fatalf("last checkpoint iter = %v, want 10", last)
		}
		sameBits(t, "x of the interrupted solve vs its last checkpoint", got, last.X)

		resumeCfg := cfg
		resumeCfg.Resume = last
		gotRes, err := CG(a, b, got, resumeCfg)
		if err != nil || !gotRes.Converged {
			t.Fatalf("resumed solve: converged=%v err=%v", gotRes != nil && gotRes.Converged, err)
		}
		if gotRes.Iterations != refRes.Iterations || gotRes.Residual != refRes.Residual {
			t.Fatalf("resumed run: %d iters residual %x; uninterrupted: %d iters residual %x",
				gotRes.Iterations, gotRes.Residual, refRes.Iterations, refRes.Residual)
		}
		sameBits(t, "resumed solution", got, ref)

		// Interrupt firing at the iteration-0 snapshot stops before any
		// iteration runs.
		var first *State
		zeroCfg := cfg
		zeroCfg.CheckpointEvery = 5
		zeroCfg.OnCheckpoint = func(s *State) { first = s }
		zeroCfg.Interrupt = func(int) bool { return true }
		if _, err := CG(a, b, make([]float64, n), zeroCfg); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("iteration-0 interrupt: err=%v, want ErrInterrupted", err)
		}
		if first == nil || first.Iter != 0 {
			t.Fatalf("iteration-0 interrupt delivered checkpoint %v, want Iter 0", first)
		}
	})
}

// TestCGResumeValidation pins the resume-state checks: wrong dimensions
// and out-of-range iterations are rejected up front, never solved.
func TestCGResumeValidation(t *testing.T) {
	eachBackend(t, func(t *testing.T, h harness) {
		a, n := h.clean(t), h.n
		b := make([]float64, n)
		b[0] = 1
		x := make([]float64, n)
		bad := &State{Iter: 0, X: make([]float64, n-1), R: make([]float64, n), P: make([]float64, n)}
		if _, err := CG(a, b, x, Config{Resume: bad}); err == nil {
			t.Fatal("short resume state accepted")
		}
		late := &State{Iter: 10, X: make([]float64, n), R: make([]float64, n), P: make([]float64, n)}
		if _, err := CG(a, b, x, Config{MaxIter: 5, Resume: late}); err == nil {
			t.Fatal("resume iteration past MaxIter accepted")
		}
	})
}
