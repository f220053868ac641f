package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/partition"
)

// Request limits, enforced by DecodeSolveRequest regardless of engine
// configuration — the decoder faces untrusted input and is fuzzed.
const (
	// maxRequestBytes bounds a request body.
	maxRequestBytes = 1 << 20
	// maxRequestPEs bounds the requested partition width.
	maxRequestPEs = 1024
	// maxRequestIters bounds the requested iteration budget.
	maxRequestIters = 10_000_000
	// maxRequestDeadlineMS bounds the requested wall budget (24h).
	maxRequestDeadlineMS = 24 * 60 * 60 * 1000
	// maxFaultPlanLen bounds the fault-plan string.
	maxFaultPlanLen = 4096
	// maxIdempotencyKeyLen bounds a client-supplied idempotency key.
	maxIdempotencyKeyLen = 128
)

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

// SolveRequest is the one form of a solve, whichever door it comes
// through: the artifact tuple (scenario, pes, method, nodesize) plus the
// per-solve parameters and budgets. It is decoded strictly — unknown
// fields, out-of-range values, malformed fault plans, and non-finite
// numbers are all refused before any work starts.
type SolveRequest struct {
	Scenario string `json:"scenario"`
	// PEs is the partition width (required, 1..Config.MaxPEs).
	PEs int `json:"pes"`
	// Method selects the partitioner (default "rcb").
	Method string `json:"method,omitempty"`
	// NodeSize > 1 installs two-level exchange aggregation with
	// contiguous PE→node packing.
	NodeSize int `json:"nodesize,omitempty"`

	// RHSSeed selects the right-hand side: 0 is the canonical two-point
	// load, anything else a seeded unit-normal vector — deterministic
	// either way, so equal requests produce equal answers.
	RHSSeed int64 `json:"rhs_seed,omitempty"`
	// Shift is the σ of the SPD operator K + σ·diag(M) (default 20).
	Shift float64 `json:"shift,omitempty"`
	// Tol is the relative residual target (default 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// MaxIters caps CG iterations; clamped to Config.MaxIter.
	MaxIters int `json:"max_iters,omitempty"`
	// DeadlineMS is the wall budget; clamped to Config.MaxDeadline,
	// which also applies when zero. Exceeding it cancels the solve at
	// the next checkpoint boundary with ErrCanceled.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Faults arms a fault plan for this solve (the chaos/soak surface).
	Faults string `json:"faults,omitempty"`
	// Recovery selects the strategy for plans that kill workers:
	// "" / "elastic" shrink-and-regrow in place, "migrate" re-dispatch
	// onto another warm pool worker from the newest checkpoint.
	Recovery string `json:"recovery,omitempty"`
	// IdempotencyKey dedups client retries: a second submission with
	// the same key binds to the first's job instead of re-running.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Stream asks the HTTP layer for chunked newline-delimited JSON
	// progress events instead of one response document.
	Stream bool `json:"stream,omitempty"`
	// FromEvent resumes a streamed solve's event feed at this sequence
	// number (used with Stream against an already-submitted job).
	FromEvent int64 `json:"from_event,omitempty"`
	// Detach makes the HTTP layer answer 202 with the job status
	// immediately instead of holding the request until the solve ends;
	// the client polls GET /v1/jobs/{id}.
	Detach bool `json:"detach,omitempty"`
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
	// Certified reports that the answer passed the solver's convergence
	// gate: CertResidual = ‖b − A·x‖/‖b‖ on the returned iterate ≤ 10·tol.
	// A solve that cannot be certified fails; it never completes.
	Certified    bool    `json:"certified"`
	CertResidual float64 `json:"cert_residual,omitempty"`
	// SolutionFP and SolutionNorm identify the solution vector without
	// shipping it: the regress FNV-1a bit fingerprint and ‖x‖₂.
	SolutionFP   uint64  `json:"solution_fp"`
	SolutionNorm float64 `json:"solution_norm"`
	WallMS       float64 `json:"wall_ms"`
}

// key canonicalizes the request's tuple (method defaults to "rcb", node
// size is at least 1) and bounds its width by the engine's MaxPEs. The
// structural checks are Validate's.
func (r *SolveRequest) key(cfg Config) (Key, error) {
	if r.PEs > cfg.MaxPEs {
		return Key{}, fmt.Errorf("%w: pes %d outside [1,%d]", ErrBadRequest, r.PEs, cfg.MaxPEs)
	}
	m := r.Method
	if m == "" {
		m = "rcb"
	}
	return Key{Scenario: r.Scenario, P: r.PEs, Method: m, NodeSize: max(r.NodeSize, 1)}, nil
}

// decodeRequest strictly decodes exactly one JSON request document:
// unknown fields and trailing data are errors. Nothing is validated yet.
func decodeRequest(r io.Reader) (*SolveRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	req := &SolveRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	// More() reports false before a stray ']' or '}', so only reading
	// the end of input proves the document was the whole body.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the request document", ErrBadRequest)
	}
	return req, nil
}

// DecodeSolveRequest reads and validates one JSON solve request. The
// decoder is strict: unknown fields are errors, numeric fields are
// bounds-checked against the package limits (engine configuration may
// clamp further), the scenario and method names must resolve, and a
// fault plan must parse and fit the requested width. A nil error
// guarantees the request is structurally safe to execute.
func DecodeSolveRequest(r io.Reader) (*SolveRequest, error) {
	req, err := decodeRequest(r)
	if err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// Validate bounds-checks every field of the request. The intake calls
// it for every solve, whichever door it came through.
func (r *SolveRequest) Validate() error {
	if r.Scenario == "" {
		return fmt.Errorf("%w: scenario is required", ErrBadRequest)
	}
	if len(r.Scenario) > 64 {
		return fmt.Errorf("%w: scenario name longer than 64 bytes", ErrBadRequest)
	}
	// The scenario name is checked structurally only; whether it
	// resolves is the engine resolver's call (ErrBadRequest at build).
	if r.PEs < 1 || r.PEs > maxRequestPEs {
		return fmt.Errorf("%w: pes %d outside [1,%d]", ErrBadRequest, r.PEs, maxRequestPEs)
	}
	if r.Method != "" {
		if _, err := partition.MethodByName(r.Method); err != nil {
			return fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
	}
	if r.NodeSize < 0 || (r.NodeSize > 1 && r.NodeSize > r.PEs) {
		return fmt.Errorf("%w: nodesize %d outside [0,pes=%d]", ErrBadRequest, r.NodeSize, r.PEs)
	}
	if !isFinite(r.Shift) || r.Shift < 0 || r.Shift > 1e12 {
		return fmt.Errorf("%w: shift %g outside [0,1e12]", ErrBadRequest, r.Shift)
	}
	if !isFinite(r.Tol) || r.Tol < 0 || r.Tol >= 1 {
		return fmt.Errorf("%w: tol %g outside [0,1)", ErrBadRequest, r.Tol)
	}
	if r.Tol != 0 && r.Tol < 1e-15 {
		return fmt.Errorf("%w: tol %g below 1e-15", ErrBadRequest, r.Tol)
	}
	if r.MaxIters < 0 || r.MaxIters > maxRequestIters {
		return fmt.Errorf("%w: max_iters %d outside [0,%d]", ErrBadRequest, r.MaxIters, maxRequestIters)
	}
	if r.DeadlineMS < 0 || r.DeadlineMS > maxRequestDeadlineMS {
		return fmt.Errorf("%w: deadline_ms %d outside [0,%d]", ErrBadRequest, r.DeadlineMS, maxRequestDeadlineMS)
	}
	if len(r.Faults) > maxFaultPlanLen {
		return fmt.Errorf("%w: fault plan longer than %d bytes", ErrBadRequest, maxFaultPlanLen)
	}
	switch r.Recovery {
	case "", RecoveryElastic, RecoveryMigrate:
	default:
		return fmt.Errorf("%w: recovery %q (want %q or %q)", ErrBadRequest, r.Recovery, RecoveryElastic, RecoveryMigrate)
	}
	if len(r.IdempotencyKey) > maxIdempotencyKeyLen {
		return fmt.Errorf("%w: idempotency key longer than %d bytes", ErrBadRequest, maxIdempotencyKeyLen)
	}
	if r.FromEvent < 0 {
		return fmt.Errorf("%w: from_event %d is negative", ErrBadRequest, r.FromEvent)
	}
	if r.Faults != "" {
		plan, err := fault.Parse(r.Faults)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		if err := plan.Validate(r.PEs); err != nil {
			return fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		if r.Recovery == RecoveryMigrate && plan.Has(fault.Revive) {
			// Only the elastic supervisor regrows a revived PE; a
			// migrated job always restarts at full width, so a revive
			// event has nothing to rejoin.
			return fmt.Errorf("%w: recovery %q cannot honor revive events (use elastic)", ErrBadRequest, RecoveryMigrate)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

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
