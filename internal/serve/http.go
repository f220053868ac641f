package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs/export"
)

// NewMux returns the service's HTTP surface: the solve, job, and
// session endpoints under /v1/, a health probe, and the full
// observability export (metrics, flight recorder, expvar, pprof) on
// the same mux so one port serves both traffic and introspection.
func NewMux(e *Engine) *http.ServeMux {
	mux := http.NewServeMux()

	em := export.NewMux(nil, nil)
	for _, p := range []string{"/metrics", "/metrics.json", "/flight", "/debug/vars", "/debug/pprof/"} {
		mux.Handle(p, em)
	}

	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, serviceIndex)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})

	mux.HandleFunc("POST /v1/solve", e.handleSolve)
	mux.HandleFunc("GET /v1/jobs", e.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", e.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", e.handleJobEvents)
	mux.HandleFunc("POST /v1/sessions", e.handleSessionOpen)
	mux.HandleFunc("GET /v1/sessions", e.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", e.handleSessionStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/solve", e.handleSessionSolve)
	mux.HandleFunc("DELETE /v1/sessions/{id}", e.handleSessionClose)
	return mux
}

const serviceIndex = `quaked endpoints:
  POST   /v1/solve                one-shot solve; every accepted solve is a durable job
                                  ("stream":true for ndjson events, "detach":true for 202 + job id,
                                   "idempotency_key" to make retries safe)
  GET    /v1/jobs                 list tracked jobs
  GET    /v1/jobs/{id}            job status (state, attempts, migrations, checkpoint iter)
  GET    /v1/jobs/{id}/events     ndjson event stream, resumable with ?from=<seq>
  POST   /v1/sessions             open a session {"scenario","pes","method","nodesize"}
  GET    /v1/sessions             list open sessions
  GET    /v1/sessions/{id}        session status
  POST   /v1/sessions/{id}/solve  solve on a session (tuple comes from the session; stream, detach
                                  and idempotency_key as on /v1/solve)
  DELETE /v1/sessions/{id}        close a session (artifacts stay warm)
  GET    /healthz                 liveness probe
  /metrics /metrics.json /flight /debug/vars /debug/pprof/   observability
`

// event is one line of a streamed ndjson solve response. Seq numbers
// the job's events from 1 so an interrupted stream resumes with
// ?from=<last seq + 1> (or "from_event" in the request body) without
// gaps or replays.
type event struct {
	Event        string        `json:"event"` // accepted | progress | migrated | result | error
	Seq          int64         `json:"seq,omitempty"`
	JobID        string        `json:"job_id,omitempty"`
	CacheHit     *bool         `json:"cache_hit,omitempty"`
	Fingerprints *Fingerprints `json:"fingerprints,omitempty"`
	Iter         int           `json:"iter,omitempty"`
	Residual     float64       `json:"residual,omitempty"`
	Result       *SolveResult  `json:"result,omitempty"`
	Error        string        `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError maps an engine error to a status code. A non-nil res rides
// along as the partial result (a deadline-canceled solve still reports
// the iterations and residual it reached).
func httpError(w http.ResponseWriter, res *SolveResult, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBusy):
		// Jittered so a synchronized client herd that all hit the full
		// queue does not re-stampede admission on the same second.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds()))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrCanceled):
		code = http.StatusRequestTimeout
	case errors.Is(err, ErrClosed):
		code = http.StatusConflict
	}
	body := struct {
		Error  string       `json:"error"`
		Result *SolveResult `json:"result,omitempty"`
	}{Error: err.Error(), Result: res}
	writeJSON(w, code, body)
}

// retryAfterSeconds draws the jittered Retry-After value (1..3).
func retryAfterSeconds() int { return 1 + rand.Intn(3) }

// handleSolve serves POST /v1/solve: one anonymous solve through the
// shared artifact cache.
func (e *Engine) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r.Body)
	if err != nil {
		httpError(w, nil, err)
		return
	}
	e.respond(w, r, req, nil)
}

// respond admits one decoded request and answers it. Every accepted
// solve is a durable job; the response shape follows the request — a
// single document, an ndjson event stream, or (detached) 202 with the
// job status to poll.
func (e *Engine) respond(w http.ResponseWriter, r *http.Request, req *SolveRequest, s *Session) {
	aj, j, err := e.admit(req, s, nil)
	if err != nil {
		httpError(w, nil, err)
		return
	}
	if aj != nil {
		j = aj.job
		if req.Stream || req.Detach {
			// The job runs detached from the connection: a dropped stream
			// does not kill the solve, and the client resumes the event
			// feed at GET /v1/jobs/{id}/events?from=<seq> (or by retrying
			// with the same idempotency key and "from_event").
			go aj.run(context.Background())
		}
	}
	switch {
	case req.Stream:
		e.streamJob(w, r, j, req.FromEvent)
	case req.Detach:
		writeJSON(w, http.StatusAccepted, j.Status())
	default:
		var res *SolveResult
		if aj != nil {
			res, err = aj.run(r.Context())
		} else {
			res, err = j.await(r.Context(), e.closing)
		}
		if err != nil {
			httpError(w, res, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// handleJobList serves GET /v1/jobs.
func (e *Engine) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{e.Jobs()})
}

// handleJobStatus serves GET /v1/jobs/{id}.
func (e *Engine) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := e.Job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobEvents serves GET /v1/jobs/{id}/events?from=<seq>: the
// job's ndjson event feed from the given sequence number (default 1),
// held open until the job reaches a terminal state.
func (e *Engine) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := e.jobs.lookup(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	var from int64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			httpError(w, nil, fmt.Errorf("%w: from %q", ErrBadRequest, q))
			return
		}
		from = v
	}
	e.streamJob(w, r, j, from)
}

// streamJob writes a job's events as chunked ndjson from the given
// sequence number until the terminal event has been delivered, the
// client goes away, or the engine closes (a parked durable job's
// stream ends without a terminal line — the client resumes against
// the restarted process).
func (e *Engine) streamJob(w http.ResponseWriter, r *http.Request, j *Job, from int64) {
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if from < 1 {
		from = 1
	}
	cursor := from
	for {
		evs, terminal := j.eventsFrom(cursor)
		for _, ev := range evs {
			enc.Encode(ev)
			cursor = ev.Seq + 1
			if ev.Event == "progress" {
				streamEvents.Add(1)
			}
		}
		if len(evs) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal {
			if more, _ := j.eventsFrom(cursor); len(more) == 0 {
				return
			}
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-e.closing:
			return
		case <-j.done:
			// Drain whatever the finisher emitted, then the terminal
			// check above ends the stream.
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// handleSessionOpen serves POST /v1/sessions.
func (e *Engine) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var spec SessionSpec
	if err := dec.Decode(&spec); err != nil {
		httpError(w, nil, fmt.Errorf("%w: %w", ErrBadRequest, err))
		return
	}
	s, err := e.Open(spec)
	if err != nil {
		httpError(w, nil, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Status())
}

// handleSessionList serves GET /v1/sessions.
func (e *Engine) handleSessionList(w http.ResponseWriter, r *http.Request) {
	ids := e.Sessions()
	statuses := make([]Status, 0, len(ids))
	for _, id := range ids {
		if s, ok := e.Session(id); ok {
			statuses = append(statuses, s.Status())
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Sessions []Status `json:"sessions"`
	}{statuses})
}

// handleSessionStatus serves GET /v1/sessions/{id}.
func (e *Engine) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	s, ok := e.Session(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

// handleSessionSolve serves POST /v1/sessions/{id}/solve. The request
// carries only per-solve fields; the tuple comes from the session, so
// naming scenario/pes/method/nodesize in the body is an error. Past that
// a session solve is a solve like any other: the same intake, the same
// job, the same response shapes.
func (e *Engine) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
	s, ok := e.Session(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	req, err := decodeRequest(r.Body)
	if err != nil {
		httpError(w, nil, err)
		return
	}
	if req.Scenario != "" || req.PEs != 0 || req.Method != "" || req.NodeSize != 0 {
		httpError(w, nil, fmt.Errorf("%w: session solve must not name scenario/pes/method/nodesize", ErrBadRequest))
		return
	}
	k := s.Key()
	req.Scenario, req.PEs, req.Method, req.NodeSize = k.Scenario, k.P, k.Method, k.NodeSize
	e.respond(w, r, req, s)
}

// handleSessionClose serves DELETE /v1/sessions/{id}.
func (e *Engine) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	s, ok := e.Session(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.Close()
	w.WriteHeader(http.StatusNoContent)
}
