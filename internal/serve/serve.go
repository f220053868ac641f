// Package serve is the warm-pool simulation service: the paper's
// central economics — amortize expensive irregular setup (mesh,
// partition, schedule, assembly) across many cheap solve steps — cast
// as a long-running server instead of a rebuild-the-world CLI run.
//
// An Engine keeps two tiers of warm state. The artifact cache maps a
// deterministic request tuple (scenario, p, method, nodesize) to the
// built mesh/partition/profile/schedule/assembly, keyed and reported
// via the internal/regress FNV-1a fingerprints, so a repeat solve for
// a known tuple skips every setup stage and goes straight to CG. Each
// artifact owns a bounded pool of warm workers — persistent-PE Dist
// runtimes plus preallocated CG workspaces — checked out per solve and
// returned afterwards, so steady-state requests spawn no goroutines
// and reuse the exchange buffers built on the first request.
//
// There is one way in and one way through. Every solve is a
// SolveRequest — synchronous, detached, streamed, or replayed from the
// journal — that enters by Engine.admit (validate, key, artifact,
// idempotency dedup, slot, job) and runs as admittedJob.run: budgets, a
// pool worker, one recover.Supervise call, one epilogue. The supervisor
// is the only code that re-runs CG or writes a durable checkpoint; what
// a request selects is its loss policy. A fault plan shrinks onto the survivors and
// regrows on revive; everything else, plain solves included, replaces a
// dead worker with a fresh one from the pool at full width — "migrate".
//
// Every accepted solve is a durable job: it gets a job ID, an entry in
// a crash-safe write-ahead journal (when JournalDir is set), an event
// feed any client can follow or resume by sequence number, and periodic
// durable checkpoints keyed by that ID; an engine restart on the same
// journal directory replays the journal and finishes every
// accepted-but-unfinished job. See job.go / journal.go and
// docs/SERVICE.md.
//
// Admission is bounded: MaxConcurrent solves run, MaxQueue more may
// wait, and anything beyond that is refused immediately (ErrBusy; the
// HTTP layer answers 429). Each request carries budgets — an iteration
// cap and a wall deadline enforced via context at the solver's
// checkpoint boundaries.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	iq "repro/internal/quake"
)

// ErrBusy reports that the admission queue is full: MaxConcurrent
// solves are running and MaxQueue more are already waiting. The HTTP
// layer maps it to 429 Too Many Requests.
var ErrBusy = errors.New("serve: admission queue full")

// ErrClosed reports an operation on a closed engine.
var ErrClosed = errors.New("serve: closed")

// ErrCanceled reports a solve stopped by its wall deadline or by the
// caller's context at a checkpoint boundary. The partial SolveResult
// accompanying it is valid; the worker returns to the pool healthy.
var ErrCanceled = errors.New("serve: solve canceled")

// ErrBadRequest marks request errors the client can fix — unknown
// scenario or method names, out-of-range budgets, malformed fault
// plans. The HTTP layer maps it to 400 Bad Request.
var ErrBadRequest = errors.New("serve: bad request")

// ErrUnavailable reports a job the journal would not record, so it is
// never acknowledged. The HTTP layer maps it to 503 Service Unavailable.
var ErrUnavailable = errors.New("serve: journal unavailable")

// Config tunes an Engine. The zero value gets sensible defaults.
type Config struct {
	// MaxConcurrent bounds solves executing at once (default
	// max(2, GOMAXPROCS)).
	MaxConcurrent int
	// MaxQueue bounds solves waiting for a slot beyond the running
	// ones; admission past MaxConcurrent+MaxQueue fails with ErrBusy
	// (default 8). Negative means no waiting room at all.
	MaxQueue int
	// WarmPool is the number of warm workers kept per artifact
	// (default 1). Checkouts beyond it build transient workers that
	// are closed on release instead of pooled.
	WarmPool int
	// MaxPEs bounds the per-request PE count (default 128).
	MaxPEs int
	// MaxIter is the hard per-request iteration cap; request budgets
	// clamp to it (default 200000).
	MaxIter int
	// MaxDeadline caps the per-request wall budget (default 5m); it is
	// also the budget applied when a request names none.
	MaxDeadline time.Duration
	// CheckpointEvery is the solver checkpoint period, which is also
	// the granularity of progress events, deadline cancellation, and
	// the migration/restart resume points (default 10 CG iterations).
	CheckpointEvery int
	// JournalDir, when set, makes jobs durable: accepted jobs are
	// journaled to <dir>/jobs.wal, in-flight checkpoints land under
	// <dir>/ckpt/<jobID>/, and NewEngine replays the journal so a
	// restart loses no accepted work. Empty keeps jobs in-memory only.
	JournalDir string
	// MaxAttempts bounds worker dispatches per job, counting the
	// initial one — so MaxAttempts−1 is the migration budget a job has
	// for workers dying under it (default 3).
	MaxAttempts int
	// RetainJobs bounds how many finished jobs stay queryable (and
	// idempotency-deduplicable); the oldest beyond it are evicted
	// (default 256).
	RetainJobs int
	// CheckpointDelay stretches every solver checkpoint by sleeping
	// this long inside the checkpoint hook — a pacing knob for chaos
	// drills and tests that must catch a solve mid-flight. Zero (the
	// default, and production) adds nothing.
	CheckpointDelay time.Duration
	// Scenarios resolves a scenario name (default quake.ByName). Tests
	// inject tiny meshes here.
	Scenarios func(name string) (iq.Scenario, error)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
		if c.MaxConcurrent < 2 {
			c.MaxConcurrent = 2
		}
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.WarmPool <= 0 {
		c.WarmPool = 1
	}
	if c.MaxPEs <= 0 {
		c.MaxPEs = 128
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200000
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	if c.Scenarios == nil {
		c.Scenarios = iq.ByName
	}
	return c
}

// Engine is the serving core behind the HTTP surface (NewMux) and the
// in-process callers (Solve, Submit). One engine per process is the
// intended shape; all its state is concurrency-safe.
type Engine struct {
	cfg Config

	// slots bounds admitted requests (running + queued); sem bounds
	// the running ones.
	slots chan struct{}
	sem   chan struct{}

	// jobs tracks every accepted solve; closing is closed by Close so
	// queued and running jobs park at the next checkpoint; running
	// counts in-flight job runners Close must drain.
	jobs    *jobManager
	closing chan struct{}
	running sync.WaitGroup

	// The build cache has two levels: what depends only on the scenario
	// (mesh, its identities, lumped mass) is built once per scenario and
	// shared by the scenario's tuples; everything else once per tuple.
	scenarios onceCache[string, *scenarioProducts]
	entries   onceCache[Key, *artifact]

	mu     sync.Mutex
	closed bool

	// Test hooks, called when non-nil: holdSolve inside every admitted
	// solve before the solver starts, to hold requests in flight;
	// answered with every finished solve's right-hand side and iterate.
	holdSolve func()
	answered  func(b, x []float64)
}

// NewEngine builds an Engine; Close releases its pooled runtimes. With
// Config.JournalDir set it opens (or creates) the job journal and
// replays it: jobs the previous process accepted but never finished
// re-enter admission in the background, resuming from their newest
// durable checkpoint. The error is the journal's — an engine without a
// JournalDir cannot fail.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxConcurrent+cfg.MaxQueue),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		closing: make(chan struct{}),
	}
	jobs, replay, err := newJobManager(cfg)
	if err != nil {
		return nil, err
	}
	e.jobs = jobs
	for _, j := range replay {
		e.running.Add(1)
		go e.replayJob(j)
	}
	return e, nil
}

// track registers one job runner with the engine's drain group. It
// refuses after Close has begun, so Close's Wait cannot race a late
// Add.
func (e *Engine) track() (func(), bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, false
	}
	e.running.Add(1)
	var once sync.Once
	return func() { once.Do(e.running.Done) }, true
}

// closingNow reports whether Close has begun; solves poll it at
// checkpoint boundaries and park instead of finishing.
func (e *Engine) closingNow() bool {
	select {
	case <-e.closing:
		return true
	default:
		return false
	}
}

// reserve takes an admission slot (running + queued), failing fast
// with ErrBusy when the queue is full — the engine's only unbounded
// refusal point, and it happens before a job is created, so "accepted"
// always means "tracked and journaled". A replayed job was admitted by a
// previous process, so it waits for a slot instead.
func (e *Engine) reserve(wait bool) (release func(), err error) {
	select {
	case e.slots <- struct{}{}:
	default:
		if !wait {
			admitRejected.Add(1)
			return nil, ErrBusy
		}
		select {
		case e.slots <- struct{}{}:
		case <-e.closing:
			return nil, ErrClosed
		}
	}
	queueDepth.Set(float64(len(e.slots) - len(e.sem)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-e.slots
			queueDepth.Set(float64(len(e.slots) - len(e.sem)))
		})
	}, nil
}

// acquireRun takes a run slot — the queued half of admission. It gives
// up when the caller's context dies or the engine starts closing.
func (e *Engine) acquireRun(ctx context.Context) (release func(), err error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.closing:
		return nil, ErrClosed
	}
	inflight.Set(float64(len(e.sem)))
	queueDepth.Set(float64(len(e.slots) - len(e.sem)))
	return func() {
		<-e.sem
		inflight.Set(float64(len(e.sem)))
		queueDepth.Set(float64(len(e.slots) - len(e.sem)))
	}, nil
}

// admit is the single intake: every solve — HTTP or in-process, fresh
// or replayed from the journal — is validated, keyed, bound to its
// (possibly cold-built) artifacts, deduplicated by idempotency key, given
// an admission slot, and only then created as a journaled job. It
// returns either an admitted job the caller must run, or the existing
// job a duplicate submission mapped to. replayed is the job a previous
// process accepted, usually nil.
func (e *Engine) admit(req *SolveRequest, replayed *Job) (aj *admittedJob, dup *Job, err error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	k, err := req.key(e.cfg)
	if err != nil {
		return nil, nil, err
	}
	// Resolve (or cold-build) the artifacts before accepting, so an
	// unknown scenario is a clean refusal whatever the response shape.
	art, hit, err := e.artifact(k)
	if err != nil {
		return nil, nil, err
	}
	untrack, ok := e.track()
	if !ok {
		return nil, nil, ErrClosed
	}
	j := replayed
	if j == nil {
		if prev := e.jobs.lookupIdem(req.IdempotencyKey); prev != nil {
			untrack()
			jobDedup.Add(1)
			return nil, prev, nil
		}
	}
	releaseSlot, err := e.reserve(replayed != nil)
	if err != nil {
		untrack()
		return nil, nil, err
	}
	if j == nil {
		if j, dup, err = e.jobs.create(req, art, hit); err != nil || dup != nil {
			releaseSlot()
			untrack()
			return nil, dup, err
		}
	}
	return &admittedJob{e: e, job: j, art: art, done: func() {
		releaseSlot()
		untrack()
	}}, nil, nil
}

// replayJob re-admits one journal-recovered job: artifacts are rebuilt
// through the same cache, the newest durable checkpoint (if any) is
// loaded, and the job runs in the background under the engine's
// lifecycle — a second restart parks it again. A request that no longer
// validates (a journal from a build with wider limits) fails cleanly.
func (e *Engine) replayJob(j *Job) {
	defer e.running.Done()
	aj, _, err := e.admit(j.req, j)
	if errors.Is(err, ErrClosed) {
		return // engine closing again; the job stays queued in the journal
	}
	if err != nil {
		e.jobs.finish(j, JobFailed, nil, fmt.Errorf("serve: replayed job %s: %w", j.st.ID, err))
		return
	}
	if j.resume = e.jobs.loadResume(j.st.ID, aj.art.meshID); j.resume != nil {
		jobItersSaved.Add(j.resume.Iter)
	}
	jobReplays.Add(1)
	aj.run(context.Background())
}

// Submit accepts a detached job: validated, journaled, and executed in
// the background under the engine's lifecycle. The returned status
// carries the job ID to poll (Job / AwaitJob, or GET /v1/jobs/{id}).
func (e *Engine) Submit(req *SolveRequest) (JobStatus, error) {
	aj, dup, err := e.admit(req, nil)
	if err != nil {
		return JobStatus{}, err
	}
	if dup != nil {
		return dup.Status(), nil
	}
	go aj.run(context.Background())
	return aj.job.Status(), nil
}

// Job returns the status of a tracked job.
func (e *Engine) Job(id string) (JobStatus, bool) {
	j, ok := e.jobs.lookup(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.Status(), true
}

// Jobs lists every tracked job in acceptance order.
func (e *Engine) Jobs() []JobStatus {
	return e.jobs.statuses()
}

// AwaitJob blocks until the job reaches a terminal state and returns
// its result exactly as the original submission would have.
func (e *Engine) AwaitJob(ctx context.Context, id string) (*SolveResult, error) {
	j, ok := e.jobs.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: unknown job %q", ErrBadRequest, id)
	}
	return j.await(ctx, e.closing)
}

// Solve is the synchronous form: admit, then run to a terminal state on
// the caller's goroutine (or await the job a duplicate bound to). The
// artifacts are resolved (or built) through the shared cache, so every
// request for a tuple after its first is served warm. Like every solve
// it is a tracked job — the result carries the job ID.
func (e *Engine) Solve(ctx context.Context, req *SolveRequest) (*SolveResult, error) {
	aj, dup, err := e.admit(req, nil)
	if err != nil {
		return nil, err
	}
	if dup != nil {
		return dup.await(ctx, e.closing)
	}
	return aj.run(ctx)
}

// Close shuts the engine down in order: refuse new jobs, interrupt
// running solves at their next checkpoint (durable jobs park in the
// journal for the next process; volatile ones cancel), drain the
// runners, close every pooled worker, compact and close the journal.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.closing)
	e.mu.Unlock()

	e.running.Wait()

	for _, a := range e.entries.values() {
		a.close()
	}
	e.jobs.close()
}
