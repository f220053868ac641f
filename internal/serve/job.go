package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	rec "repro/internal/recover"
	"repro/internal/regress"
	"repro/internal/solver"
)

// The durable-job metrics. Like the serve.* block in cache.go, all are
// registered once and documented in docs/OBSERVABILITY.md under the
// doc-drift guard.
var (
	jobAccepted   = obs.GetCounter("serve.job.accepted")
	jobDedup      = obs.GetCounter("serve.job.dedup")
	jobCompleted  = obs.GetCounter("serve.job.completed")
	jobFailed     = obs.GetCounter("serve.job.failed")
	jobCanceled   = obs.GetCounter("serve.job.canceled")
	jobRequeued   = obs.GetCounter("serve.job.requeued")
	jobMigrations = obs.GetCounter("serve.job.migrations")
	jobReplays    = obs.GetCounter("serve.job.replays")
	jobItersSaved = obs.GetCounter("serve.job.resumed_iters_saved")
	jobGCPruned   = obs.GetCounter("serve.job.gc.pruned")

	jobJournalRecords     = obs.GetCounter("serve.job.journal.records")
	jobJournalCompactions = obs.GetCounter("serve.job.journal.compactions")
	jobJournalDropped     = obs.GetCounter("serve.job.journal.dropped")
	jobJournalErrors      = obs.GetCounter("serve.job.journal.errors")
	jobJournalBytes       = obs.GetGauge("serve.job.journal.bytes")
	jobJournalSyncUS      = obs.GetHistogram("serve.job.journal.sync_us")
)

// JobState is one station of the job lifecycle:
//
//	queued ──→ running ──→ completed | failed | canceled
//	  ↑            │
//	  └────────────┘  (engine shutdown requeues a durable job)
//
// A worker death inside running does not change the state — the job
// migrates to another pool worker and stays running. Terminal states
// never transition again.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

func (s JobState) valid() bool {
	switch s {
	case JobQueued, JobRunning, JobCompleted, JobFailed, JobCanceled:
		return true
	}
	return false
}

func (s JobState) terminal() bool {
	return s == JobCompleted || s == JobFailed || s == JobCanceled
}

// jobKeepCkpts is the per-job durable-checkpoint window: the newest
// file is what a resume reads; the ones behind it only buy tolerance
// to a torn latest write.
const jobKeepCkpts = 3

// maxJobEvents bounds one job's buffered event history; past it the
// oldest events fall off and a late stream resume skips ahead.
const maxJobEvents = 4096

// Job is one accepted solve tracked through its whole life: admission,
// execution, worker migrations, durable checkpoints, and the terminal
// result. All fields behind mu; the identity fields before it are
// immutable after creation.
type Job struct {
	id       string
	idem     string
	req      *SolveRequest
	key      Key
	cacheHit bool
	accepted time.Time

	mu         sync.Mutex
	state      JobState
	attempts   int
	migrations int
	ckptIter   int
	result     *SolveResult
	errMsg     string
	err        error
	finished   time.Time
	replayed   bool
	events     []event
	nextSeq    int64
	// termEmitted marks that the terminal result/error event is in the
	// buffer, so a stream can end only after delivering it.
	termEmitted bool
	done        chan struct{}

	// resume is the newest durable checkpoint, loaded at replay for the
	// run to restart from; nil for a job this process accepted.
	resume *rec.Checkpoint
}

// JobStatus is a job's point-in-time public state (GET /v1/jobs/{id}).
type JobStatus struct {
	ID             string    `json:"id"`
	State          JobState  `json:"state"`
	Key            Key       `json:"key"`
	IdempotencyKey string    `json:"idempotency_key,omitempty"`
	AcceptedAt     time.Time `json:"accepted_at"`
	// Attempts counts dispatches onto a worker; Migrations counts the
	// re-dispatches forced by a worker death mid-solve.
	Attempts   int `json:"attempts"`
	Migrations int `json:"migrations"`
	// CheckpointIter is the iteration of the newest in-flight
	// checkpoint — where a migration or restart resumes from.
	CheckpointIter int `json:"checkpoint_iter"`
	// NextEvent is the sequence number a stream resume should pass as
	// from_event to continue without gaps.
	NextEvent int64 `json:"next_event"`
	// Replayed marks a job recovered from the journal by an engine
	// restart rather than accepted by this process.
	Replayed bool         `json:"replayed,omitempty"`
	Result   *SolveResult `json:"result,omitempty"`
	Error    string       `json:"error,omitempty"`
	Finished *time.Time   `json:"finished_at,omitempty"`
}

// newJobID draws a crypto-random 12-hex-digit id: ids must stay unique
// across process restarts sharing one journal, so a counter won't do.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to wall-clock nanoseconds; worse distribution,
		// same restart-safety.
		return fmt.Sprintf("j%012x", time.Now().UnixNano()&0xffffffffffff)
	}
	return "j" + hex.EncodeToString(b[:])
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:             j.id,
		State:          j.state,
		Key:            j.key,
		IdempotencyKey: j.idem,
		AcceptedAt:     j.accepted,
		Attempts:       j.attempts,
		Migrations:     j.migrations,
		CheckpointIter: j.ckptIter,
		NextEvent:      j.nextSeq + 1,
		Replayed:       j.replayed,
		Result:         j.result,
		Error:          j.errMsg,
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// emit appends one event to the job's buffer, assigning its sequence
// number. The buffer is bounded: a stream that falls maxJobEvents
// behind loses its oldest events and resumes from what remains.
func (j *Job) emit(ev event) {
	j.mu.Lock()
	j.nextSeq++
	ev.Seq = j.nextSeq
	ev.JobID = j.id
	j.events = append(j.events, ev)
	if ev.Event == "result" || ev.Event == "error" {
		j.termEmitted = true
	}
	if len(j.events) > maxJobEvents {
		j.events = j.events[len(j.events)-maxJobEvents:]
	}
	j.mu.Unlock()
}

// eventsFrom copies the buffered events with Seq >= from and reports
// whether the job has reached a terminal state (no more will come).
func (j *Job) eventsFrom(from int64) ([]event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq >= from })
	out := append([]event(nil), j.events[i:]...)
	return out, j.state.terminal() && j.termEmitted
}

// await blocks until the job reaches a terminal state.
func (j *Job) await(ctx context.Context, closing <-chan struct{}) (*SolveResult, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: %w awaiting job %s: %w", ErrCanceled, j.id, ctx.Err())
	case <-closing:
		return nil, fmt.Errorf("serve: %w while awaiting job %s", ErrClosed, j.id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// jobManager owns the job table and its journal. A manager without a
// journal dir is fully functional but volatile — jobs die with the
// process, exactly the pre-journal behavior.
type jobManager struct {
	eng        *Engine
	dir        string // journal dir; "" = volatile
	jl         *journal
	retain     int
	journalMax int64
	ckptBudget int64

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	byIdem map[string]*Job
}

// newJobManager opens (or skips) the journal and rebuilds the job
// table from it. Jobs that were queued or running when the previous
// process died come back queued with Replayed set — the engine
// re-admits them; terminal jobs are retained for idempotent
// re-submission until evicted.
func newJobManager(e *Engine, cfg Config) (*jobManager, []*Job, error) {
	m := &jobManager{
		eng:        e,
		dir:        cfg.JournalDir,
		retain:     cfg.RetainJobs,
		journalMax: cfg.JournalMaxBytes,
		ckptBudget: cfg.CheckpointBudgetBytes,
		jobs:       make(map[string]*Job),
		byIdem:     make(map[string]*Job),
	}
	if cfg.JournalDir == "" {
		return m, nil, nil
	}
	jl, recs, err := openJournal(cfg.JournalDir)
	if err != nil {
		return nil, nil, err
	}
	m.jl = jl
	for _, r := range recs {
		switch r.Op {
		case "accept":
			if _, ok := m.jobs[r.ID]; ok {
				continue
			}
			j := &Job{
				id:       r.ID,
				idem:     r.Idem,
				req:      r.Req,
				accepted: r.Time,
				state:    JobQueued,
				done:     make(chan struct{}),
			}
			j.key, _ = r.Req.key(cfg) // a tuple the limits now refuse stays unkeyed; admit fails it
			m.jobs[r.ID] = j
			m.order = append(m.order, r.ID)
			if r.Idem != "" {
				m.byIdem[r.Idem] = j
			}
		case "state":
			j, ok := m.jobs[r.ID]
			if !ok {
				continue
			}
			j.state = r.State
			j.attempts = r.Attempts
			j.migrations = r.Migrations
			j.ckptIter = r.CkptIter
			j.result = r.Result
			j.errMsg = r.Error
			if r.Error != "" {
				j.err = errors.New(r.Error)
			}
			if !r.Time.IsZero() && r.State.terminal() {
				j.finished = r.Time
				close(j.done)
			}
		}
	}
	var replay []*Job
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state.terminal() {
			continue
		}
		// Accepted but unfinished: back to the queue, marked as a
		// replay; the engine re-admits it through the one intake.
		j.state = JobQueued
		j.replayed = true
		replay = append(replay, j)
	}
	// Startup housekeeping: rewrite the journal down to the live set,
	// drop checkpoint dirs that belong to no surviving unfinished job,
	// and enforce the disk budget on what remains.
	m.compact()
	m.gcOrphans()
	m.sweepBudget()
	return m, replay, nil
}

func (m *jobManager) durable() bool { return m.jl != nil }

func (m *jobManager) ckptDir(id string) string {
	return filepath.Join(m.dir, "ckpt", id)
}

// create registers a new job (journaling its acceptance) or, when the
// idempotency key is already known, returns the existing job as dup.
func (m *jobManager) create(req *SolveRequest, a *artifact, hit bool) (j, dup *Job) {
	m.mu.Lock()
	if req.IdempotencyKey != "" {
		if prev, ok := m.byIdem[req.IdempotencyKey]; ok {
			m.mu.Unlock()
			return nil, prev
		}
	}
	j = &Job{
		id:       newJobID(),
		idem:     req.IdempotencyKey,
		req:      req,
		key:      a.key,
		cacheHit: hit,
		accepted: time.Now(),
		state:    JobQueued,
		done:     make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if j.idem != "" {
		m.byIdem[j.idem] = j
	}
	m.evictLocked()
	m.mu.Unlock()

	jobAccepted.Add(1)
	m.jl.append(&jobRecord{Op: "accept", ID: j.id, Time: j.accepted, Idem: j.idem, Req: req})
	fp := a.fp
	j.emit(event{Event: "accepted", CacheHit: &hit, Fingerprints: &fp})
	return j, nil
}

// lookup returns the job with the given id.
func (m *jobManager) lookup(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// lookupIdem returns the job already holding an idempotency key.
func (m *jobManager) lookupIdem(idem string) *Job {
	if idem == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byIdem[idem]
}

// tracked returns every tracked job in acceptance order.
func (m *jobManager) tracked() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	return jobs
}

// statuses snapshots every tracked job in acceptance order.
func (m *jobManager) statuses() []JobStatus {
	jobs := m.tracked()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// terminalNow reads the job's terminal-ness under its own lock:
// j.state belongs to j.mu, not to the manager's map lock.
func (j *Job) terminalNow() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.terminal()
}

// evictLocked drops the oldest terminal jobs beyond the retention
// bound. Caller holds m.mu (the m.mu → j.mu order is acquired nowhere
// in reverse).
func (m *jobManager) evictLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].terminalNow() {
			terminal++
		}
	}
	for i := 0; terminal > m.retain && i < len(m.order); {
		j := m.jobs[m.order[i]]
		if !j.terminalNow() {
			i++
			continue
		}
		delete(m.jobs, j.id)
		if j.idem != "" && m.byIdem[j.idem] == j {
			delete(m.byIdem, j.idem)
		}
		m.order = append(m.order[:i], m.order[i+1:]...)
		terminal--
	}
}

// logState appends the job's current state to the journal and compacts
// the WAL when it has outgrown its budget.
func (m *jobManager) logState(j *Job) {
	if m.jl == nil {
		return
	}
	m.jl.append(j.stateRecord())
	if m.jl.size() > m.journalMax {
		m.compact()
	}
}

func (j *Job) stateRecord() *jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := &jobRecord{
		Op:         "state",
		ID:         j.id,
		Time:       time.Now(),
		State:      j.state,
		Attempts:   j.attempts,
		Migrations: j.migrations,
		CkptIter:   j.ckptIter,
		Replayed:   j.replayed,
		Error:      j.errMsg,
	}
	if j.state.terminal() {
		r.Result = j.result
	}
	return r
}

// compact rewrites the journal to exactly the live job set: one accept
// and one current-state record per tracked job.
func (m *jobManager) compact() {
	if m.jl == nil {
		return
	}
	jobs := m.tracked()
	recs := make([]*jobRecord, 0, 2*len(jobs))
	for _, j := range jobs {
		recs = append(recs, &jobRecord{Op: "accept", ID: j.id, Time: j.accepted, Idem: j.idem, Req: j.req})
		recs = append(recs, j.stateRecord())
	}
	m.jl.compact(recs)
}

// setRunning moves a queued job into execution and returns its
// dispatch count, this one included.
func (m *jobManager) setRunning(j *Job) int {
	j.mu.Lock()
	j.state = JobRunning
	j.attempts++
	attempts := j.attempts
	j.mu.Unlock()
	m.logState(j)
	return attempts
}

// migrated records one worker-death re-dispatch: the job stays
// running, on a different worker, resuming from resumeIter.
func (m *jobManager) migrated(j *Job, deadPE int, resumeIter int) {
	j.mu.Lock()
	j.migrations++
	j.attempts++
	j.mu.Unlock()
	jobMigrations.Add(1)
	jobItersSaved.Add(int64(resumeIter))
	obs.RecordFlight(obs.FlightRecovery, "serve.job.migrate", deadPE, int64(resumeIter), 0)
	m.logState(j)
	j.emit(event{Event: "migrated", Iter: resumeIter})
}

// The outcome counters of a terminal state: every finished job counts
// under jobOutcomes, and under solveOutcomes too if it got as far as run.
var (
	jobOutcomes   = map[JobState]*obs.Counter{JobCompleted: jobCompleted, JobFailed: jobFailed, JobCanceled: jobCanceled}
	solveOutcomes = map[JobState]*obs.Counter{JobCompleted: solvesOK, JobFailed: solvesFailed, JobCanceled: solvesCanceled}
)

// finish moves a job to its terminal state: completed with a result,
// failed with an error the client cannot retry away, or canceled by its
// deadline or its caller. res may be the partial result of a solve that
// did not complete.
func (m *jobManager) finish(j *Job, state JobState, res *SolveResult, err error) {
	ev := event{Event: "result", Result: res}
	if err != nil {
		ev.Event, ev.Error = "error", err.Error()
	}
	j.mu.Lock()
	j.state = state
	j.result = res
	j.err = err
	j.errMsg = ev.Error
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	jobOutcomes[state].Add(1)
	m.logState(j)
	j.emit(ev)
	m.gcJob(j)
}

// requeue parks an interrupted durable job for the next process: state
// back to queued, checkpoint retained, no terminal event. The caller
// holds the engine's closing guarantee that no new attempt starts in
// this process.
func (m *jobManager) requeue(j *Job) {
	j.mu.Lock()
	j.state = JobQueued
	j.mu.Unlock()
	jobRequeued.Add(1)
	m.logState(j)
}

// gcJob deletes a terminal job's checkpoint directory — the journal
// carries its result; the snapshots have nothing left to resume.
func (m *jobManager) gcJob(j *Job) {
	if m.dir == "" {
		return
	}
	m.removeCkptDir(m.ckptDir(j.id))
	m.sweepBudget()
}

func (m *jobManager) removeCkptDir(dir string) {
	n := 0
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				n++
			}
		}
	}
	if err := os.RemoveAll(dir); err == nil && n > 0 {
		jobGCPruned.Add(int64(n))
	}
}

// gcOrphans removes checkpoint directories owned by no live unfinished
// job — terminal jobs' leftovers and dirs from jobs the journal no
// longer tracks.
func (m *jobManager) gcOrphans() {
	if m.dir == "" {
		return
	}
	root := filepath.Join(m.dir, "ckpt")
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	m.mu.Lock()
	live := make(map[string]bool, len(m.jobs))
	for id, j := range m.jobs {
		if !j.terminalNow() {
			live[id] = true
		}
	}
	m.mu.Unlock()
	for _, e := range entries {
		if e.IsDir() && !live[e.Name()] {
			m.removeCkptDir(filepath.Join(root, e.Name()))
		}
	}
}

// sweepBudget enforces the checkpoint disk budget: when the ckpt tree
// exceeds it, whole job directories are pruned oldest-first (by the
// owning job's acceptance time; unknown dirs count as oldest), never
// touching jobs still queued or running.
func (m *jobManager) sweepBudget() {
	if m.dir == "" || m.ckptBudget <= 0 {
		return
	}
	root := filepath.Join(m.dir, "ckpt")
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type cdir struct {
		path     string
		size     int64
		accepted time.Time
		live     bool
	}
	var dirs []cdir
	var total int64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		d := cdir{path: filepath.Join(root, e.Name())}
		if st, err := rec.NewStore(d.path); err == nil {
			d.size, _ = st.SizeBytes() // an unreadable dir weighs nothing
		}
		if j, ok := m.lookup(e.Name()); ok {
			st := j.Status()
			d.accepted = st.AcceptedAt
			d.live = !st.State.terminal()
		}
		total += d.size
		dirs = append(dirs, d)
	}
	if total <= m.ckptBudget {
		return
	}
	sort.Slice(dirs, func(a, b int) bool { return dirs[a].accepted.Before(dirs[b].accepted) })
	for _, d := range dirs {
		if total <= m.ckptBudget {
			break
		}
		if d.live {
			continue
		}
		m.removeCkptDir(d.path)
		total -= d.size
	}
}

// loadResume reads a job's newest durable checkpoint, refusing one
// written against a different mesh. It returns nil when there is nothing
// (or nothing valid) to resume from.
func (m *jobManager) loadResume(id string, meshID uint64) *rec.Checkpoint {
	if m.dir == "" {
		return nil
	}
	store, err := rec.NewStore(m.ckptDir(id))
	if err != nil {
		return nil
	}
	ck, _, err := store.Latest()
	if err != nil || ck.MeshID != meshID {
		return nil
	}
	return ck
}

// close runs the final compaction and closes the journal. Called after
// the engine has drained every running job.
func (m *jobManager) close() {
	m.compact()
	if m.jl != nil {
		m.jl.close()
	}
}

// admittedJob is one job holding an admission slot: created by
// Engine.admit, consumed exactly once by run.
type admittedJob struct {
	e   *Engine
	job *Job
	art *artifact
	// session, when non-nil, is the session the solve was submitted
	// through; its counters settle when run returns.
	session *Session
	// done releases the admission slot and the engine tracking ref.
	done func()
}

// run executes the job to a terminal state (or a durable requeue at
// engine shutdown). It is the engine's single solve path: budgets,
// worker checkout, one supervised CG, certification, pool return, job
// bookkeeping. What differs between solves is only the supervisor's loss
// policy: a fault plan without "recovery":"migrate" shrinks and regrows
// in place; everything else — plain solves included, so a genuine PE
// panic still migrates — replaces a dead worker with a fresh one from the
// pool at full width.
func (aj *admittedJob) run(ctx context.Context) (res *SolveResult, err error) {
	e, a, j, req := aj.e, aj.art, aj.job, aj.job.req
	defer func() {
		if aj.session != nil {
			aj.session.end(res, err)
		}
		aj.done()
	}()

	// Wait for a run slot (the queued half of admission).
	runRelease, err := e.acquireRun(ctx)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return aj.park(nil, fmt.Errorf("serve: %w while queued", ErrClosed))
		}
		return aj.end(JobCanceled, nil, fmt.Errorf("serve: %w while queued: %w", ErrCanceled, err))
	}
	defer runRelease()
	attempts := e.jobs.setRunning(j)
	if hold := e.holdSolve; hold != nil {
		hold()
	}

	// Budgets: iteration cap and wall deadline, both clamped to the
	// engine limits. The deadline fires through ctx at checkpoint
	// boundaries, leaving the worker healthy.
	n := 3 * a.mesh.NumNodes()
	maxIter := req.MaxIters
	if maxIter <= 0 || maxIter > e.cfg.MaxIter {
		maxIter = e.cfg.MaxIter
	}
	if def := 4 * n; req.MaxIters <= 0 && def < maxIter {
		maxIter = def
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline <= 0 || deadline > e.cfg.MaxDeadline {
		deadline = e.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	tol := req.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	shift := req.Shift
	if shift <= 0 {
		shift = 20
	}

	// The per-job durable checkpoint store: the supervisor lands every
	// in-flight snapshot here (the store holds itself to a bounded tail),
	// so a process restart resumes instead of recomputing.
	var store *rec.Store
	if e.jobs.durable() {
		if store, err = rec.NewStore(e.jobs.ckptDir(j.id)); err != nil {
			store = nil
			jobJournalErrors.Add(1)
		} else {
			store.Keep = jobKeepCkpts
		}
	}

	b := rhsFor(req.RHSSeed, n)
	x := make([]float64, n)
	normB := norm2(b)

	cfg := rec.SuperviseConfig{
		Solver: solver.Config{
			MaxIter:         maxIter,
			Tol:             tol,
			CheckpointEvery: e.cfg.CheckpointEvery,
			OnCheckpoint: func(st *solver.State) {
				if d := e.cfg.CheckpointDelay; d > 0 {
					time.Sleep(d)
				}
				j.mu.Lock()
				j.ckptIter = st.Iter // where a migration or a restart resumes
				j.mu.Unlock()
				rel := norm2(st.R)
				if normB > 0 {
					rel /= normB
				}
				j.emit(event{Event: "progress", Iter: st.Iter, Residual: rel})
			},
		},
		Store:  store,
		MeshID: a.meshID,
		Stop:   func() bool { return ctx.Err() != nil || e.closingNow() },
	}
	if j.resume != nil {
		// The durable checkpoint recorded the plan as of the snapshot;
		// trust it over the original request (it is the same canonical
		// string unless events were already consumed).
		err = cfg.ResumeFrom(j.resume)
	} else if req.Faults != "" {
		cfg.Plan, err = fault.Parse(req.Faults)
	}
	if err != nil {
		return aj.end(JobFailed, nil, fmt.Errorf("%w: fault plan: %w", ErrBadRequest, err))
	}

	start := time.Now()
	w, err := a.checkout()
	if err != nil {
		return aj.end(JobFailed, nil, err)
	}
	if cfg.Plan != nil && req.Recovery != RecoveryMigrate {
		solvesSupervise.Add(1)
	} else {
		// Live migration: the worker is dead, the job is not. The
		// artifacts are canonical and a snapshot is the exact tuple
		// entering its iteration, so the migrated trajectory is
		// bit-identical to an uninterrupted solve. What is left of
		// MaxAttempts bounds the replacements; none left is −1, zero
		// being the supervisor's "default".
		cfg.MaxShrinks = e.cfg.MaxAttempts - attempts
		if cfg.MaxShrinks < 1 {
			cfg.MaxShrinks = -1
		}
		cfg.Replace = func(deadPE, resumeIter int) (*par.Dist, error) {
			a.release(w, false)
			var err error
			if w, err = a.checkout(); err != nil {
				return nil, err
			}
			e.jobs.migrated(j, deadPE, resumeIter)
			return w.dist, nil
		}
	}
	out, serr := rec.Supervise(w.dist, &rec.System{
		Mesh: a.mesh, Material: a.mat, Part: a.part,
		Shift: shift, MassNode: a.massNode, NodeOf: a.nodeOf,
	}, b, x, cfg)

	res = &SolveResult{
		JobID: j.id, CacheHit: j.cacheHit, Fingerprints: a.fp,
		Width:   out.Part.P,
		Shrinks: out.Shrinks, Grows: out.Grows, DeadPEs: out.DeadPEs, RevivedPEs: out.RevivedPEs,
		Migrations: out.Migrations + j.Status().Migrations,
		WallMS:     float64(time.Since(start)) / float64(time.Millisecond),
	}
	if sr := out.Result; sr != nil {
		res.Iterations, res.Residual, res.Converged = sr.Iterations, sr.Residual, sr.Converged
	}
	if serr == nil {
		certify(res, out.Dist, shift, a.massNode, b, x, normB)
	}
	res.SolutionFP = regress.Vector(x)
	res.SolutionNorm = norm2(x)

	// The worker goes back to the pool only if its own Dist finished the
	// solve alive; a Dist the supervisor rebuilt belongs to this solve
	// alone. (w is nil when the last replacement found no worker.)
	interrupted := errors.Is(serr, solver.ErrInterrupted)
	if w != nil {
		healthy := out.Dist == w.dist && (serr == nil || interrupted)
		if healthy && cfg.Plan != nil {
			// Disarm before pooling: a healthy worker must not carry
			// this solve's plan into the next request.
			w.dist.InjectFaults(nil)
		}
		a.release(w, healthy)
	}
	if w == nil || out.Dist != w.dist {
		out.Dist.Close()
	}

	switch {
	case serr == nil:
		return aj.end(JobCompleted, res, nil)
	case interrupted && e.closingNow():
		return aj.park(res, fmt.Errorf("serve: %w: engine closing", ErrClosed))
	case interrupted:
		res.Canceled = true
		return aj.end(JobCanceled, res, fmt.Errorf("serve: %w: %w", ErrCanceled, ctx.Err()))
	default:
		return aj.end(JobFailed, res, fmt.Errorf("serve: solve failed: %w", serr))
	}
}

// end settles the job in a terminal state and returns run's answer.
func (aj *admittedJob) end(state JobState, res *SolveResult, err error) (*SolveResult, error) {
	solveOutcomes[state].Add(1)
	aj.e.jobs.finish(aj.job, state, res, err)
	return res, err
}

// park requeues a durable job interrupted by engine shutdown (the
// next process resumes it from its checkpoint); a volatile job is
// canceled — there is nowhere for it to survive.
func (aj *admittedJob) park(res *SolveResult, err error) (*SolveResult, error) {
	if aj.e.jobs.durable() {
		aj.e.jobs.requeue(aj.job)
		return res, err
	}
	return aj.end(JobCanceled, res, err)
}
