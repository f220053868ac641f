// Package solver provides a preconditioned conjugate gradient solver
// built on the SMVP kernel. The Quake applications use explicit time
// stepping precisely so that the SMVP is the *only* parallel operation;
// implicit methods solve a linear system each step with CG, which adds
// global dot products (allreduce communication) to the profile. This
// package supplies the solver itself and, together with
// model.AllReduce, lets the harness quantify what the paper's explicit
// choice avoids.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// ErrInterrupted reports that Config.Interrupt stopped the solve at a
// durable checkpoint boundary. The iterate is consistent: the State just
// delivered to OnCheckpoint resumes the solve bit for bit via
// Config.Resume. The elastic-recovery supervisor uses this to pause a
// solve, regrow or rebalance the partition, and continue on the rebuilt
// operator.
var ErrInterrupted = errors.New("solver: interrupted at checkpoint")

// ErrUncertified reports a solve that breaks down or fails the
// convergence gate more than maxRestarts times: the iterate cannot be
// certified, so it is not reported as an answer.
var ErrUncertified = errors.New("solver: convergence not certified")

// Operator is a square linear operator on block vectors (length 3·N
// scalars for N block rows).
type Operator interface {
	// Apply computes y = A·x. y and x must not alias. A returned error
	// is fatal to the solve: it means the operator itself can no longer
	// produce answers (e.g. a poisoned distributed runtime), which no
	// restart can repair.
	Apply(y, x []float64) error
	// Dim returns the scalar dimension of the operator.
	Dim() int
}

// Shifted is the operator A = K + σ·diag(M): the stiffness matrix plus
// a scaled lumped-mass diagonal. K alone is positive semidefinite (it
// annihilates rigid-body modes); any σ > 0 makes the operator strictly
// positive definite, which CG requires. Physically this is the
// frequency-domain (Helmholtz-like) or backward-Euler system matrix.
type Shifted struct {
	K *sparse.BCSR
	// MassNode holds one lumped mass per block row, applied to all
	// three of the row's degrees of freedom.
	MassNode []float64
	Sigma    float64
}

// Apply implements Operator. A MassNode that is not one entry per block
// row is an error whenever the shift would read it.
func (s Shifted) Apply(y, x []float64) error {
	if err := s.checkMass(); err != nil {
		return err
	}
	s.K.MulVec(y, x)
	AddShift(y, x, s.MassNode, s.Sigma)
	return nil
}

// Dim implements Operator.
func (s Shifted) Dim() int { return 3 * s.K.N }

// Diagonal returns the scalar diagonal of the operator, used to build
// the Jacobi preconditioner. A mass vector Apply refuses panics with
// Apply's error.
func (s Shifted) Diagonal() []float64 {
	if err := s.checkMass(); err != nil {
		panic(err)
	}
	d, ones := make([]float64, s.Dim()), make([]float64, s.Dim())
	for i := 0; i < s.K.N; i++ {
		blk := s.K.Block(int32(i), int32(i))
		d[3*i], d[3*i+1], d[3*i+2] = blk[0], blk[4], blk[8]
		ones[3*i], ones[3*i+1], ones[3*i+2] = 1, 1, 1
	}
	AddShift(d, ones, s.MassNode, s.Sigma)
	return d
}

// checkMass is the mass rule of Apply and Diagonal: one entry per block
// row whenever σ is set or a mass is given.
func (s Shifted) checkMass() error {
	if (s.Sigma != 0 || s.MassNode != nil) && len(s.MassNode) != s.K.N {
		return fmt.Errorf("solver: mass vector has %d entries, want %d", len(s.MassNode), s.K.N)
	}
	return nil
}

// AddShift adds σ·diag(M)·x to y, one mass per node for its three rows:
// the shift of every operator K + σ·diag(M). Each product is converted
// explicitly, so no target fuses it into the add.
func AddShift(y, x, mass []float64, sigma float64) {
	for i, m := range mass {
		f := sigma * m
		y[3*i] += float64(f * x[3*i])
		y[3*i+1] += float64(f * x[3*i+1])
		y[3*i+2] += float64(f * x[3*i+2])
	}
}

// Result reports a CG solve.
type Result struct {
	Iterations int
	// Residual is the recursive ‖r‖₂/‖b‖₂ of the last iteration.
	Residual float64
	// TrueResidual is the last certificate the convergence gate took,
	// ‖b − A·x‖₂/‖b‖₂ evaluated directly; zero if the recursion never
	// reached Tol. Converged implies TrueResidual ≤ certSlack·Tol.
	TrueResidual float64
	Converged    bool
	// SMVPs is the number of operator applications (one per iteration,
	// one for the initial residual, one per certificate and one per
	// restart) — the communicating operation count an implicit method
	// would execute.
	SMVPs int
	// DotProducts is the number of global dot products performed — each
	// is an allreduce on a parallel machine.
	DotProducts int
	// Restarts counts the times the Krylov state was rebuilt from the
	// iterate because the gate refused a certificate or the iteration
	// broke down.
	Restarts int
	// Checkpoints counts the State snapshots handed to
	// Config.OnCheckpoint.
	Checkpoints int
}

// State is a resumable snapshot of the CG iteration: exactly the tuple
// (x, r, p, ρ) entering iteration Iter. Because each CG iteration reads
// only that tuple (z and Ap are scratch, fully rewritten before use), a
// solve resumed from a State retraces the uninterrupted iteration
// bit for bit — same operator, same floats, same operation order. The
// slices are private copies; the solver never aliases them with its
// workspace.
type State struct {
	// Iter is the 0-based index of the next iteration to execute.
	Iter int
	// X, R, P are the iterate, recursive residual, and search direction
	// entering iteration Iter.
	X, R, P []float64
	// Rho is ρ = rᵀz entering iteration Iter.
	Rho float64
}

// Config controls the CG iteration.
type Config struct {
	MaxIter int
	Tol     float64 // relative residual target
	// Precondition, when non-nil, is the inverse-diagonal (Jacobi)
	// preconditioner: z = Precondition ⊙ r.
	Precondition []float64
	// Workspace, when non-nil, supplies the serial backend's iteration
	// vectors so repeated solves reuse one set of allocations (an
	// implicit time stepper calls CG every step). A workspace must not
	// be shared by concurrent solves. An operator that hosts the
	// iteration itself keeps its own vectors and ignores it.
	Workspace *Workspace
	// CheckpointEvery > 0 arms durable checkpointing: OnCheckpoint
	// receives a State snapshot before the first iteration and then
	// after every CheckpointEvery-th iteration's (p, ρ) update — the
	// consistent tuple entering the next iteration. Snapshots are taken
	// off the per-iteration hot path and may allocate. Ignored when
	// OnCheckpoint is nil.
	CheckpointEvery int
	// OnCheckpoint consumes durable snapshots. The *State and its
	// slices are owned by the callee.
	OnCheckpoint func(*State)
	// Interrupt, when non-nil, is polled immediately after every
	// OnCheckpoint delivery (so it runs only when durable checkpointing
	// is armed). Returning true stops the solve with ErrInterrupted;
	// the snapshot just delivered is the exact state to Resume from.
	Interrupt func(iter int) bool
	// Resume, when non-nil, restarts the solve from a captured State
	// instead of the caller's x: the snapshot's (x, r, p, ρ) are loaded
	// and the iteration continues at State.Iter, reproducing the
	// uninterrupted run bit for bit.
	Resume *State
}

// Workspace holds the serial backend's four iteration vectors (r, z, p,
// Ap) and its per-node weights (every node owned, no shift). One
// workspace serves any operator whose dimension fits; it grows on demand
// and is reused across solves via Config.Workspace.
type Workspace struct {
	r, z, p, ap []float64
	own, shift  []float64
}

// NewWorkspace preallocates a workspace for operators of scalar
// dimension n (3·nodes for the distributed stiffness operator).
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure sizes the vectors for dimension n, reallocating only when the
// capacity is insufficient. CG fully initializes every vector before
// reading it, so stale contents are harmless.
func (w *Workspace) ensure(n int) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
		w.own = make([]float64, n/3)
		w.shift = make([]float64, n/3)
		for i := range w.own {
			w.own[i] = 1
		}
	}
	w.r = w.r[:n]
	w.z = w.z[:n]
	w.p = w.p[:n]
	w.ap = w.ap[:n]
	w.own = w.own[:n/3]
	w.shift = w.shift[:n/3]
}

// backend is where one solve's iteration vectors (x, r, z, p, Ap) live
// and where the kernels over them run. CG itself is one control loop —
// convergence and its certificate, breakdown, restarts, checkpoints,
// interrupts — that sees the iteration only through the
// scalars a backend returns. The vector recurrences themselves are
// Vectors' sweeps, which both implementations run: serial (below) holds
// one set over the caller's slices and drives any Operator through
// Apply; an Operator that implements these methods itself hosts the
// iteration where its data lives (par.Operator keeps one set per PE and
// runs a burst of iterations per dispatch, adding only the exchange and
// the reductions across PEs) and CG uses it in place of serial.
type backend interface {
	// Begin claims the backend for one solve and installs the right-hand
	// side, the optional Jacobi diagonal and the iterate x. With r and p
	// non-nil it also installs a resumed Krylov state; otherwise Residual
	// must run before Iterate.
	Begin(b, prec, x, r, p []float64) error
	// End releases the backend. The vectors do not outlive it.
	End()
	// Residual rebuilds the Krylov state from the iterate: r = b − A·x,
	// z = M⁻¹r, p = z, returning ρ = rᵀz. With scrub set it first zeroes
	// the iterate's non-finite entries (the restart path).
	Residual(scrub bool) (rho float64, err error)
	// Iterate runs up to n iterations from ρ = rho. Each iteration forms
	// Ap and pᵀAp, steps x and r by α = ρ/pᵀAp, forms z = M⁻¹r, ‖r‖² and
	// the next ρ, and then asks stop about the three scalars: true ends
	// the burst before the p update, false completes the iteration with
	// p = z + (ρ'/ρ)·p. It returns the number of iterations started and
	// the last one's scalars.
	Iterate(rho float64, n int, stop func(pap, rn2, rho float64) bool) (its int, pap, rn2, rhoNew float64, err error)
	// TrueResidual evaluates ‖b − A·x‖ directly, using Ap as scratch.
	TrueResidual() (float64, error)
	// Gather writes the iterate, residual and direction into the non-nil
	// destinations, which are full-length vectors owned by the caller.
	Gather(x, r, p []float64) error
}

// serial is the backend over plain slices: one Vectors set over the
// caller's x and a Workspace, and an operator reached only through
// Apply, which forms A·p whole — so the set has no shift — and whose
// pᵀAp is taken by dot. It is the path for Shifted (K alone is
// Shifted{K: k}) and any wrapper, and the reference the resident backend is differenced
// against.
type serial struct {
	a  Operator
	v  Vectors
	ws *Workspace
}

func (s *serial) Begin(b, prec, x, r, p []float64) error {
	v := &s.v
	v.B, v.Prec, v.Z = b, prec, s.ws.z
	if prec == nil {
		v.Z = v.R
	}
	copy(v.X, x)
	if r != nil {
		copy(v.R, r)
		copy(v.P, p)
	}
	return nil
}

func (s *serial) End() {}

func (s *serial) Residual(scrub bool) (rho float64, err error) {
	if scrub {
		s.v.Scrub()
	}
	if err := s.a.Apply(s.ws.ap, s.v.X); err != nil {
		return 0, err
	}
	_, rho = s.v.Residual(s.ws.ap, s.v.X, true)
	return rho, nil
}

func (s *serial) Iterate(rho float64, n int, stop func(pap, rn2, rho float64) bool) (its int, pap, rn2, rhoNew float64, err error) {
	v, ap := &s.v, s.ws.ap
	for its < n {
		if err = s.a.Apply(ap, v.P); err != nil {
			return its, pap, rn2, rhoNew, err
		}
		its++
		pap = dot(v.P, ap)
		rn2, rhoNew = v.Step(ap, rho/pap)
		if stop(pap, rn2, rhoNew) {
			break
		}
		v.Direction(rhoNew / rho)
		rho = rhoNew
	}
	return its, pap, rn2, rhoNew, nil
}

func (s *serial) TrueResidual() (float64, error) {
	if err := s.a.Apply(s.ws.ap, s.v.X); err != nil {
		return 0, err
	}
	rn2, _ := s.v.Residual(s.ws.ap, s.v.X, false)
	return math.Sqrt(rn2), nil
}

func (s *serial) Gather(x, r, p []float64) error {
	copy(x, s.v.X)
	copy(r, s.v.R)
	copy(p, s.v.P)
	return nil
}

// maxBurst caps the iterations one Iterate call may run when no
// checkpoint ends the burst sooner, so that whatever waits for the
// backend between bursts (par.Dist.Close, InjectFaults) waits a bounded
// time.
const maxBurst = 32

// certSlack is the convergence gate's bound in units of Tol: a solve is
// Converged only when ‖b − A·x‖/‖b‖ ≤ certSlack·Tol. The recursive
// residual drifts from the true one by roundoff; 10·Tol is the rule the
// end-to-end benchmark already applies to every answer it receives.
const certSlack = 10

// maxRestarts bounds the Krylov restarts of one solve. A fault that
// outlasts them is persistent, and the solve fails with ErrUncertified
// instead of spending MaxIter on it.
const maxRestarts = 3

// CG solves A·x = b by (optionally Jacobi-preconditioned) conjugate
// gradients, overwriting x with the solution (x's initial content is
// the starting guess). When the solve fails because the operator did,
// x may be left as the caller passed it: a dead backend cannot hand its
// iterate back.
//
// Convergence is gated: when the recursive residual reaches Tol, CG
// evaluates ‖b − A·x‖ once on the iterate it will return, and reports
// Converged only if that certificate is finite and ≤ certSlack·Tol. A
// corrupted exchange can drive the recursion to zero while x is wrong;
// such a certificate, and any non-finite or non-positive pᵀAp, ‖r‖ or ρ,
// restarts the Krylov state from the current iterate (non-finite entries
// zeroed, r = b − A·x, p = z) within the same MaxIter budget. Past
// maxRestarts the solve fails with ErrUncertified.
func CG(a Operator, b, x []float64, cfg Config) (*Result, error) {
	n := a.Dim()
	if len(b) != n || len(x) != n {
		return nil, fmt.Errorf("solver: dimension mismatch: A %d, b %d, x %d", n, len(b), len(x))
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = n
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-8
	}
	be, resident := a.(backend)
	if !resident && n%3 != 0 {
		return nil, fmt.Errorf("solver: operator dimension %d is not 3 per node", n)
	}
	if cfg.Precondition != nil && len(cfg.Precondition) != n {
		return nil, fmt.Errorf("solver: preconditioner length %d, want %d", len(cfg.Precondition), n)
	}
	st := cfg.Resume
	if st != nil {
		if len(st.X) != n || len(st.R) != n || len(st.P) != n {
			return nil, fmt.Errorf("solver: resume state dimension mismatch: x %d, r %d, p %d, want %d", len(st.X), len(st.R), len(st.P), n)
		}
		if st.Iter < 0 || st.Iter >= cfg.MaxIter {
			return nil, fmt.Errorf("solver: resume iteration %d outside [0,%d)", st.Iter, cfg.MaxIter)
		}
	}

	res := &Result{}

	// Telemetry: one solve span on the driver track, aggregate counters,
	// and (when tracing) a residual counter sample per burst.
	sp := obs.StartSpan(obs.TrackDriver, "solve", "solver.cg")
	tracer := obs.ActiveTracer()
	obs.GetCounter("solver.cg.solves").Add(1)
	defer func() {
		obs.GetCounter("solver.cg.iterations").Add(int64(res.Iterations))
		obs.GetCounter("solver.cg.smvps").Add(int64(res.SMVPs))
		obs.GetCounter("solver.cg.dotproducts").Add(int64(res.DotProducts))
		obs.GetGauge("solver.cg.residual").Set(res.Residual)
		obs.GetCounter("solver.cg.restarts").Add(int64(res.Restarts))
		obs.GetHistogram("solver.cg.iters_per_solve").Observe(int64(res.Iterations))
		sp.EndWith(map[string]any{
			"iterations": res.Iterations,
			"residual":   res.Residual,
			"converged":  res.Converged,
			"restarts":   res.Restarts,
		})
	}()

	normB := norm2(b)
	res.DotProducts++
	if normB == 0 {
		for i := range x {
			x[i] = 0
		}
		res.Converged = true
		return res, nil
	}

	if !resident {
		ws := cfg.Workspace
		if ws == nil {
			ws = NewWorkspace(n)
		} else {
			ws.ensure(n)
		}
		be = &serial{a: a, ws: ws, v: Vectors{X: x, R: ws.r, P: ws.p, Own: ws.own, Shift: ws.shift}}
	}
	x0 := x
	var r0, p0 []float64
	if st != nil {
		x0, r0, p0 = st.X, st.R, st.P
	}
	if err := be.Begin(b, cfg.Precondition, x0, r0, p0); err != nil {
		return res, fmt.Errorf("solver: operator failed: %w", err)
	}
	defer func() {
		// Error ignored: only a dead operator fails here, and the solve
		// has already reported it.
		_ = be.Gather(x, nil, nil)
		be.End()
	}()

	// rz is ρ = rᵀz entering the next iteration.
	var rz float64
	iter := 0
	if st != nil {
		rz, iter = st.Rho, st.Iter
		obs.GetCounter("solver.cg.resumes").Add(1)
		obs.RecordFlight(obs.FlightSolver, "solver.cg.resume", -1, int64(st.Iter), 0)
	} else {
		rho, err := be.Residual(false)
		if err != nil {
			return res, fmt.Errorf("solver: operator failed: %w", err)
		}
		rz = rho
		res.SMVPs++
		res.DotProducts++
	}

	// restart rebuilds the Krylov state from the current iterate. The
	// rebuilt state is exact by construction, and CG restarted from any
	// finite x converges to the SPD solution.
	restart := func(why string) error {
		if res.Restarts >= maxRestarts {
			return fmt.Errorf("%w after %d restarts: %s", ErrUncertified, maxRestarts, why)
		}
		res.Restarts++
		obs.RecordFlight(obs.FlightSolver, "solver.cg.restart", -1, int64(iter), 0)
		rho, err := be.Residual(true)
		if err != nil {
			return fmt.Errorf("solver: operator failed during restart: %w", err)
		}
		rz = rho
		res.SMVPs++
		res.DotProducts++
		return nil
	}

	// Durable checkpoints: freshly allocated States handed to the caller,
	// who typically persists them (internal/recover) or holds them for a
	// shrink-to-survivors rebuild. This is the cold path and may
	// allocate; the iterations between two snapshots do not.
	durable := cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil
	deliver := func() error {
		s := &State{Iter: iter, Rho: rz,
			X: make([]float64, n), R: make([]float64, n), P: make([]float64, n)}
		if err := be.Gather(s.X, s.R, s.P); err != nil {
			return fmt.Errorf("solver: operator failed at checkpoint %d: %w", iter, err)
		}
		res.Checkpoints++
		cfg.OnCheckpoint(s)
		if cfg.Interrupt != nil && cfg.Interrupt(iter) {
			return ErrInterrupted
		}
		return nil
	}
	if durable && st == nil {
		// Iteration-0 snapshot, so a fault before the first periodic
		// checkpoint still leaves a consistent state to resume from.
		if err := deliver(); err != nil {
			return res, err
		}
	}

	// stop ends a burst at the first iteration whose scalars the control
	// loop must look at; it runs on the backend (on every PE of a
	// resident one), so it is a pure function of its arguments.
	stop := func(pap, rn2, rho float64) bool {
		return !isFinite(pap) || pap <= 0 || !isFinite(rn2) || !isFinite(rho) ||
			math.Sqrt(rn2)/normB <= cfg.Tol
	}
	for iter < cfg.MaxIter {
		// One burst: up to the next checkpoint, or MaxIter.
		burst := min(cfg.MaxIter-iter, maxBurst)
		if durable {
			burst = min(burst, cfg.CheckpointEvery-iter%cfg.CheckpointEvery)
		}
		its, pap, rn2, rzNew, err := be.Iterate(rz, burst, stop)
		iter += its
		res.Iterations = iter
		res.SMVPs += its
		res.DotProducts += 3 * its // pᵀAp, ‖r‖², rᵀz
		if err != nil {
			return res, fmt.Errorf("solver: operator failed at iteration %d: %w", iter, err)
		}
		// Everything below judges the burst's last iteration, index iter-1;
		// the ones before it passed stop, so they were clean.
		rn := math.Sqrt(rn2)
		if !isFinite(pap) || pap <= 0 || !isFinite(rn) || !isFinite(rzNew) {
			if err := restart(fmt.Sprintf("breakdown at iteration %d: pᵀAp = %g, ‖r‖ = %g, ρ = %g", iter-1, pap, rn, rzNew)); err != nil {
				return res, err
			}
			continue
		}
		res.Residual = rn / normB
		if tracer != nil {
			tracer.CounterEvent(obs.TrackDriver, "solver.cg.residual", res.Residual)
		}
		if res.Residual <= cfg.Tol {
			tr, err := be.TrueResidual()
			res.SMVPs++
			res.DotProducts++
			if err != nil {
				return res, fmt.Errorf("solver: operator failed certifying convergence: %w", err)
			}
			res.TrueResidual = tr / normB
			if isFinite(tr) && res.TrueResidual <= certSlack*cfg.Tol {
				res.Converged = true
				return res, nil
			}
			if err := restart(fmt.Sprintf("recursive residual %.3g at iteration %d, certificate %.3g", res.Residual, iter-1, res.TrueResidual)); err != nil {
				return res, err
			}
			continue
		}
		// The iteration completed: (x, r, p, ρ) is the consistent tuple
		// entering iteration iter, the only kind safe to save or resume.
		rz = rzNew
		if durable && iter%cfg.CheckpointEvery == 0 {
			if err := deliver(); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }
