package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/par"
)

// SessionSpec names the cached artifacts a session binds to.
type SessionSpec struct {
	Scenario string `json:"scenario"`
	// PEs is the partition width (required, 1..Config.MaxPEs).
	PEs int `json:"pes"`
	// Method selects the partitioner (default "rcb").
	Method string `json:"method,omitempty"`
	// NodeSize > 1 installs two-level exchange aggregation with
	// contiguous PE→node packing.
	NodeSize int `json:"nodesize,omitempty"`
}

// key canonicalizes and validates the spec against the engine limits.
func (s SessionSpec) key(cfg Config) (Key, error) {
	if s.Scenario == "" {
		return Key{}, fmt.Errorf("%w: scenario is required", ErrBadRequest)
	}
	if s.PEs < 1 || s.PEs > cfg.MaxPEs {
		return Key{}, fmt.Errorf("%w: pes %d outside [1,%d]", ErrBadRequest, s.PEs, cfg.MaxPEs)
	}
	m := s.Method
	if m == "" {
		m = "rcb"
	}
	ns := s.NodeSize
	if ns <= 1 {
		ns = 1
	}
	if ns > s.PEs {
		return Key{}, fmt.Errorf("%w: nodesize %d exceeds pes %d", ErrBadRequest, ns, s.PEs)
	}
	return Key{Scenario: s.Scenario, P: s.PEs, Method: m, NodeSize: ns}, nil
}

// Recovery strategies for solves whose fault plan kills workers.
const (
	// RecoveryElastic shrinks the partition around the dead PE and
	// regrows on revive — the supervisor's shrink policy, and the
	// default.
	RecoveryElastic = "elastic"
	// RecoveryMigrate re-dispatches the job onto another warm pool
	// worker at full width, resuming from the newest checkpoint — the
	// supervisor's replace policy.
	RecoveryMigrate = "migrate"
)

// SolveSpec is one solve's parameters and budgets.
type SolveSpec struct {
	// RHSSeed selects the right-hand side: 0 is the canonical two-point
	// load, anything else a seeded unit-normal vector — deterministic
	// either way, so equal requests produce equal answers.
	RHSSeed int64 `json:"rhs_seed,omitempty"`
	// Shift is the σ of the SPD operator K + σ·diag(M) (default 20).
	Shift float64 `json:"shift,omitempty"`
	// Tol is the relative residual target (default 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps CG iterations; clamped to Config.MaxIter.
	MaxIter int `json:"max_iters,omitempty"`
	// Deadline is the wall budget; clamped to Config.MaxDeadline,
	// which also applies when zero. Exceeding it cancels the solve at
	// the next checkpoint boundary with ErrCanceled.
	Deadline time.Duration `json:"-"`
	// Faults arms a fault plan for this solve (the chaos/soak surface).
	// Plans with kill or revive events run under the elastic-recovery
	// supervisor unless Recovery selects migration.
	Faults string `json:"faults,omitempty"`
	// Recovery selects what happens when the plan kills a worker:
	// "" or RecoveryElastic shrink-and-regrow in place;
	// RecoveryMigrate moves the job to another warm pool worker,
	// resuming from its newest checkpoint at full width.
	Recovery string `json:"recovery,omitempty"`
	// IdempotencyKey, when set, dedups retried submissions: a second
	// solve carrying the same key binds to the first's job instead of
	// running again.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// SolveResult reports one served solve.
type SolveResult struct {
	// JobID names the durable job that produced this result; poll it at
	// GET /v1/jobs/{id} for attempts, migrations, and checkpoint state.
	JobID      string  `json:"job_id,omitempty"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	Converged  bool    `json:"converged"`
	// Canceled marks a solve stopped by its deadline; the other fields
	// describe the partial state at the stop.
	Canceled bool `json:"canceled,omitempty"`
	// CacheHit reports whether the setup artifacts were served from
	// the cache (true on every solve after the key's first).
	CacheHit     bool         `json:"cache_hit"`
	Fingerprints Fingerprints `json:"fingerprints"`
	// Width is the PE count that finished the solve — smaller than the
	// request's when a kill shrank the partition and no revive grew it
	// back.
	Width int `json:"width"`
	// Elastic-recovery outcome of a faulted solve. Migrations counts
	// both supervisor-internal migrations and whole-worker job
	// migrations on the RecoveryMigrate path.
	Shrinks    int   `json:"shrinks,omitempty"`
	Grows      int   `json:"grows,omitempty"`
	Migrations int   `json:"migrations,omitempty"`
	DeadPEs    []int `json:"dead_pes,omitempty"`
	RevivedPEs []int `json:"revived_pes,omitempty"`
	// Certified reports that the answer was re-verified with an
	// independent operator application after the solve: CertResidual
	// is the true relative residual ‖b − A·x‖/‖b‖.
	Certified    bool    `json:"certified"`
	CertResidual float64 `json:"cert_residual,omitempty"`
	// SolutionFP and SolutionNorm identify the solution vector without
	// shipping it: the regress FNV-1a bit fingerprint and ‖x‖₂.
	SolutionFP   uint64  `json:"solution_fp"`
	SolutionNorm float64 `json:"solution_norm"`
	WallMS       float64 `json:"wall_ms"`
}

// Session is a warm handle on one cache entry: Open it once, Solve
// many times, Close when done. Closing the session keeps the cached
// artifacts and warm workers — reopening the same tuple is free.
type Session struct {
	id       string
	eng      *Engine
	art      *artifact
	cacheHit bool
	opened   time.Time

	mu           sync.Mutex
	closed       bool
	solves       int
	active       int
	migrations   int
	lastIter     int
	lastResidual float64
	lastError    string
}

// Status is a session's point-in-time state.
type Status struct {
	ID           string       `json:"id"`
	Key          Key          `json:"key"`
	Fingerprints Fingerprints `json:"fingerprints"`
	CacheHit     bool         `json:"cache_hit"`
	OpenedAt     time.Time    `json:"opened_at"`
	Solves       int          `json:"solves"`
	Active       int          `json:"active"`
	// Migrations is the total migration count across the session's
	// solves: supervisor PE migrations plus whole-worker job
	// migrations.
	Migrations   int     `json:"migrations,omitempty"`
	WarmWorkers  int     `json:"warm_workers"`
	LastIter     int     `json:"last_iterations,omitempty"`
	LastResidual float64 `json:"last_residual,omitempty"`
	LastError    string  `json:"last_error,omitempty"`
	Closed       bool    `json:"closed,omitempty"`
}

// ID returns the session's engine-unique identifier.
func (s *Session) ID() string { return s.id }

// Key returns the artifact tuple the session is bound to.
func (s *Session) Key() Key { return s.art.key }

// Status reports the session's current state.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		ID:           s.id,
		Key:          s.art.key,
		Fingerprints: s.art.fp,
		CacheHit:     s.cacheHit,
		OpenedAt:     s.opened,
		Solves:       s.solves,
		Active:       s.active,
		Migrations:   s.migrations,
		WarmWorkers:  s.art.Warm(),
		LastIter:     s.lastIter,
		LastResidual: s.lastResidual,
		LastError:    s.lastError,
		Closed:       s.closed,
	}
}

// Solve runs one budgeted solve on a warm worker: the spec joins the
// session's tuple as an ordinary request and goes through the engine's
// one intake, so it is validated, journaled and replayable like any
// other. Concurrent calls on one session are admitted independently
// (each takes its own worker).
func (s *Session) Solve(ctx context.Context, spec SolveSpec) (*SolveResult, error) {
	k := s.art.key
	return s.eng.solve(ctx, &SolveRequest{
		Scenario: k.Scenario, PEs: k.P, Method: k.Method, NodeSize: k.NodeSize,
		RHSSeed: spec.RHSSeed, Shift: spec.Shift, Tol: spec.Tol,
		MaxIters: spec.MaxIter, DeadlineMS: int64(spec.Deadline / time.Millisecond),
		Faults: spec.Faults, Recovery: spec.Recovery, IdempotencyKey: spec.IdempotencyKey,
	}, s)
}

// begin counts a solve submitted through the session; end, called once
// the solve is refused or its job finishes, settles it.
func (s *Session) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: session %s: %w", s.id, ErrClosed)
	}
	s.active++
	s.solves++
	return nil
}

func (s *Session) end(res *SolveResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if res != nil {
		s.lastIter = res.Iterations
		s.lastResidual = res.Residual
		s.migrations += res.Migrations
	}
	s.lastError = ""
	if err != nil {
		s.lastError = err.Error()
	}
}

// Close detaches the session. The cached artifacts and warm workers
// stay resident in the engine for the next Open or anonymous solve.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.eng.mu.Lock()
	delete(s.eng.sessions, s.id)
	s.eng.mu.Unlock()
	sessionsClosed.Add(1)
	return nil
}

// certify re-verifies a finished solve with one independent operator
// application: the true relative residual on the operator that
// produced x, recorded so no solve grades only its own recursion.
func certify(res *SolveResult, d *par.Dist, shift float64, massNode, b, x []float64, normB float64) {
	if normB == 0 {
		return
	}
	ax := make([]float64, len(x))
	op := par.Operator{D: d, Shift: shift, MassNode: massNode}
	if err := op.Apply(ax, x); err != nil {
		return
	}
	var rr float64
	for i := range ax {
		diff := b[i] - ax[i]
		rr += diff * diff
	}
	res.Certified = true
	res.CertResidual = math.Sqrt(rr) / normB
}

// rhsFor builds the deterministic right-hand side for a seed.
func rhsFor(seed int64, n int) []float64 {
	b := make([]float64, n)
	if seed == 0 {
		b[2] = 50
		b[n-1] = -20
		return b
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func norm2(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v * v
	}
	return math.Sqrt(s)
}
