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

// NewMux returns the service's HTTP surface: the solve and job
// endpoints under /v1/, a health probe, and the full
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
	return mux
}

const serviceIndex = `quaked endpoints:
  POST   /v1/solve                solve; every accepted solve is a durable job, and every solve
                                  of a tuple after its first is served from the artifact cache
                                  ("stream":true for ndjson events, "detach":true for 202 + job id,
                                   "idempotency_key" to make retries safe)
  GET    /v1/jobs                 list tracked jobs
  GET    /v1/jobs/{id}            job status (state, attempts, migrations, checkpoint iter)
  GET    /v1/jobs/{id}/events     ndjson event stream, resumable with ?from=<seq>
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
	case errors.Is(err, ErrUnavailable):
		code = http.StatusServiceUnavailable
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

// handleSolve serves POST /v1/solve: one solve through the shared
// artifact cache. Every accepted solve is a durable job; the response
// shape follows the request — a single document, an ndjson event stream,
// or (detached) 202 with the job status to poll.
func (e *Engine) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r.Body)
	if err != nil {
		httpError(w, nil, err)
		return
	}
	aj, j, err := e.admit(req, nil)
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
