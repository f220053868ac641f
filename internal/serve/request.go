package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

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

// SolveRequest is the wire form of one solve: the session tuple plus
// the per-solve parameters and budgets. It is decoded strictly —
// unknown fields, out-of-range values, malformed fault plans, and
// non-finite numbers are all refused before any work starts.
type SolveRequest struct {
	Scenario string `json:"scenario"`
	PEs      int    `json:"pes"`
	Method   string `json:"method,omitempty"`
	NodeSize int    `json:"nodesize,omitempty"`

	RHSSeed    int64   `json:"rhs_seed,omitempty"`
	Shift      float64 `json:"shift,omitempty"`
	Tol        float64 `json:"tol,omitempty"`
	MaxIters   int     `json:"max_iters,omitempty"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
	Faults     string  `json:"faults,omitempty"`
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

// key canonicalizes the request's tuple against the engine limits.
func (r *SolveRequest) key(cfg Config) (Key, error) {
	return SessionSpec{Scenario: r.Scenario, PEs: r.PEs, Method: r.Method, NodeSize: r.NodeSize}.key(cfg)
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
	if dec.More() {
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
