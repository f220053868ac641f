package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
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
// result. Its record is one JobStatus — what GET /v1/jobs/{id} shows is
// the state itself — converted to and from the journal by
// acceptRecord/stateRecord and apply, and by nothing else.
type Job struct {
	req      *SolveRequest
	cacheHit bool
	done     chan struct{} // closed on reaching a terminal state

	// st's ID, Key, IdempotencyKey and AcceptedAt are set before the job
	// is shared and never change, so they are read without mu; the rest
	// of st and the fields below it are behind mu.
	mu      sync.Mutex
	st      JobStatus
	err     error // st.Error as in-process callers get it
	events  []event
	nextSeq int64
	// termEmitted marks that the terminal result/error event is in the
	// buffer, so a stream can end only after delivering it.
	termEmitted bool
	// pending is the terminal state while its record is being journaled:
	// what stateRecord, and so a compaction, writes, and what no status
	// read sees until finish publishes it into st.
	pending *JobStatus

	// resume is the newest durable checkpoint, loaded at replay for the
	// run to restart from; nil for a job this process accepted.
	resume *rec.Checkpoint
}

// newJob builds a queued job around its request; the identity comes from
// the caller (create) or from the journaled accept record (apply).
func newJob(req *SolveRequest, key Key, hit bool) *Job {
	return &Job{req: req, cacheHit: hit, done: make(chan struct{}), st: JobStatus{State: JobQueued, Key: key}}
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
	st := j.st
	st.NextEvent = j.nextSeq + 1
	return st
}

// acceptRecord is the journal record that creates the job.
func (j *Job) acceptRecord() *jobRecord {
	return &jobRecord{Op: "accept", ID: j.st.ID, Time: j.st.AcceptedAt, Idem: j.st.IdempotencyKey, Req: j.req}
}

// stateRecord is the journal record of where the job stands now, a
// terminal state being journaled included. A terminal record carries
// the finish time, so the job reads the same after any number of
// restarts and compactions.
func (j *Job) stateRecord() *jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &j.st
	if j.pending != nil {
		st = j.pending
	}
	r := &jobRecord{
		Op:         "state",
		ID:         st.ID,
		Time:       time.Now(),
		State:      st.State,
		Attempts:   st.Attempts,
		Migrations: st.Migrations,
		CkptIter:   st.CheckpointIter,
		Replayed:   st.Replayed,
		Result:     st.Result,
		Error:      st.Error,
	}
	if st.Finished != nil {
		r.Time = *st.Finished
	}
	return r
}

// apply is the inverse of the two above: it folds one journal record
// into a job no other goroutine can see yet. Records of one job apply in
// file order; the last state wins.
func (j *Job) apply(r *jobRecord) {
	if r.Op == "accept" {
		j.st.ID, j.st.AcceptedAt, j.st.IdempotencyKey = r.ID, r.Time, r.Idem
		return
	}
	j.st.State = r.State
	j.st.Attempts = r.Attempts
	j.st.Migrations = r.Migrations
	j.st.CheckpointIter = r.CkptIter
	j.st.Replayed = r.Replayed
	j.st.Result = r.Result
	j.st.Error = r.Error
	if r.Error != "" {
		j.err = errors.New(r.Error)
	}
	if !r.Time.IsZero() && r.State.terminal() {
		finished := r.Time
		j.st.Finished = &finished
		close(j.done)
	}
}

// emit appends one event to the job's buffer, assigning its sequence
// number. The buffer is bounded: a stream that falls maxJobEvents
// behind loses its oldest events and resumes from what remains.
func (j *Job) emit(ev event) {
	j.mu.Lock()
	j.nextSeq++
	ev.Seq = j.nextSeq
	ev.JobID = j.st.ID
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
	return out, j.st.State.terminal() && j.termEmitted
}

// await blocks until the job reaches a terminal state.
func (j *Job) await(ctx context.Context, closing <-chan struct{}) (*SolveResult, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: %w awaiting job %s: %w", ErrCanceled, j.st.ID, ctx.Err())
	case <-closing:
		return nil, fmt.Errorf("serve: %w while awaiting job %s", ErrClosed, j.st.ID)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Result, j.err
}

// journalMaxBytes is the WAL size past which logState compacts it.
const journalMaxBytes = 4 << 20

// jobManager owns the job table and its journal. A manager without a
// journal dir is fully functional but volatile — jobs die with the
// process, exactly the pre-journal behavior.
type jobManager struct {
	dir    string // journal dir; "" = volatile
	jl     *journal
	retain int

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
func newJobManager(cfg Config) (*jobManager, []*Job, error) {
	m := &jobManager{
		dir:    cfg.JournalDir,
		retain: cfg.retainJobs,
		jobs:   make(map[string]*Job),
		byIdem: make(map[string]*Job),
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
		j, known := m.jobs[r.ID]
		switch {
		case r.Op == "accept" && !known:
			key, _ := r.Req.key(cfg) // a tuple the limits now refuse stays unkeyed; admit fails it
			j = newJob(r.Req, key, false)
			j.apply(r)
			m.register(j)
		case r.Op == "state" && known:
			j.apply(r)
		}
	}
	var replay []*Job
	for _, id := range m.order {
		// Accepted but unfinished: back to the queue, marked as a
		// replay; the engine re-admits it through the one intake.
		if j := m.jobs[id]; !j.st.State.terminal() {
			j.st.State = JobQueued
			j.st.Replayed = true
			replay = append(replay, j)
		}
	}
	// Startup housekeeping: rewrite the journal down to the live set and
	// drop checkpoint dirs that belong to no surviving unfinished job.
	m.compact()
	m.gcOrphans()
	return m, replay, nil
}

// register enters a job into the table. Caller holds m.mu or is the
// only goroutine there is (startup).
func (m *jobManager) register(j *Job) {
	m.jobs[j.st.ID] = j
	m.order = append(m.order, j.st.ID)
	if j.st.IdempotencyKey != "" {
		m.byIdem[j.st.IdempotencyKey] = j
	}
}

// unregister takes a job out of the table. Caller holds m.mu.
func (m *jobManager) unregister(j *Job) {
	delete(m.jobs, j.st.ID)
	m.order = slices.DeleteFunc(m.order, func(id string) bool { return id == j.st.ID })
	if m.byIdem[j.st.IdempotencyKey] == j {
		delete(m.byIdem, j.st.IdempotencyKey)
	}
}

func (m *jobManager) ckptDir(id string) string {
	return filepath.Join(m.dir, "ckpt", id)
}

// create registers a new job (journaling its acceptance) or, when the
// idempotency key is already known, returns the existing job as dup. A
// job the journal refuses leaves the table, key included: ErrUnavailable.
func (m *jobManager) create(req *SolveRequest, a *artifact, hit bool) (j, dup *Job, err error) {
	m.mu.Lock()
	if req.IdempotencyKey != "" {
		if prev, ok := m.byIdem[req.IdempotencyKey]; ok {
			m.mu.Unlock()
			jobDedup.Add(1)
			return nil, prev, nil
		}
	}
	j = newJob(req, a.key, hit)
	j.st.ID, j.st.AcceptedAt, j.st.IdempotencyKey = newJobID(), time.Now(), req.IdempotencyKey
	m.register(j)
	m.evictLocked()
	m.mu.Unlock()

	if err := m.jl.append(j.acceptRecord()); err != nil {
		err = fmt.Errorf("%w: accepting job: %w", ErrUnavailable, err)
		m.mu.Lock()
		m.unregister(j)
		m.mu.Unlock()
		j.mu.Lock() // a duplicate bound meanwhile hears the refusal
		j.st.State, j.st.Error, j.err = JobFailed, err.Error(), err
		j.mu.Unlock()
		close(j.done)
		return nil, nil, err
	}
	jobAccepted.Add(1)
	fp := a.fp
	j.emit(event{Event: "accepted", CacheHit: &hit, Fingerprints: &fp})
	return j, nil, nil
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

// terminalNow reads the job's terminal-ness under its own lock: the
// state belongs to j.mu, not to the manager's map lock.
func (j *Job) terminalNow() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.State.terminal()
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
		m.unregister(j)
		terminal--
	}
}

// logState appends the job's current state to the journal and compacts
// the WAL when it has outgrown its budget.
func (m *jobManager) logState(j *Job) {
	m.jl.append(j.stateRecord())
	if m.jl.size() > journalMaxBytes {
		m.compact()
	}
}

// compact rewrites the journal to exactly the live job set: one accept
// and one current-state record per tracked job, read while no append
// runs, so every state already appended is in the rewrite.
func (m *jobManager) compact() {
	m.jl.compact(func() []*jobRecord {
		jobs := m.tracked()
		recs := make([]*jobRecord, 0, 2*len(jobs))
		for _, j := range jobs {
			recs = append(recs, j.acceptRecord(), j.stateRecord())
		}
		return recs
	})
}

// setRunning moves a queued job into execution and returns its
// dispatch count, this one included.
func (m *jobManager) setRunning(j *Job) int {
	j.mu.Lock()
	j.st.State = JobRunning
	j.st.Attempts++
	attempts := j.st.Attempts
	j.mu.Unlock()
	m.logState(j)
	return attempts
}

// migrated records one worker-death re-dispatch: the job stays
// running, on a different worker, resuming from resumeIter.
func (m *jobManager) migrated(j *Job, deadPE int, resumeIter int) {
	j.mu.Lock()
	j.st.Migrations++
	j.st.Attempts++
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
	now := time.Now()
	j.mu.Lock()
	st := j.st
	st.State, st.Result, st.Error, st.Finished = state, res, ev.Error, &now
	j.pending = &st
	j.mu.Unlock()
	// Journal first, then publish: a status poll, like a waiter, hears of
	// the end only once it is journaled, so a result a client has seen is
	// one no restart runs again. Meanwhile the terminal state is pending,
	// so a compaction writes it, not the state from before it.
	m.logState(j)
	j.mu.Lock()
	j.st.State, j.st.Result, j.st.Error, j.st.Finished = state, res, ev.Error, &now
	j.pending, j.err = nil, err
	j.mu.Unlock()
	jobOutcomes[state].Add(1)
	close(j.done)
	j.emit(ev)
	// The journal carries the result; the snapshots have nothing left to
	// resume.
	m.removeCkpts(j.st.ID)
}

// requeue parks an interrupted durable job for the next process: state
// back to queued, checkpoint retained, no terminal event. The caller
// holds the engine's closing guarantee that no new attempt starts in
// this process.
func (m *jobManager) requeue(j *Job) {
	j.mu.Lock()
	j.st.State = JobQueued
	j.mu.Unlock()
	jobRequeued.Add(1)
	m.logState(j)
}

// store opens a job's checkpoint directory, held to the per-job window
// — the one place a Store on it is made, for the run that writes it and
// the replay that reads it. nil when the engine is volatile or the
// directory cannot be had; the solve then runs without durable snapshots.
func (m *jobManager) store(id string) *rec.Store {
	if m.dir == "" {
		return nil
	}
	s, err := rec.NewStore(m.ckptDir(id))
	if err != nil {
		jobJournalErrors.Add(1)
		return nil
	}
	s.Keep = jobKeepCkpts
	return s
}

// loadResume reads a job's newest durable checkpoint, refusing one
// written against a different mesh. It returns nil when there is nothing
// (or nothing valid) to resume from.
func (m *jobManager) loadResume(id string, meshID uint64) *rec.Checkpoint {
	store := m.store(id)
	if store == nil {
		return nil
	}
	ck, _, err := store.Latest()
	if err != nil || ck.MeshID != meshID {
		return nil
	}
	return ck
}

// removeCkpts deletes a job's checkpoint directory, counting the files
// that went under serve.job.gc.pruned. Between them its two callers keep
// ckpt/ to the directories of unfinished jobs: finish removes a job's
// own, and startup removes what a dead process left (gcOrphans).
func (m *jobManager) removeCkpts(id string) {
	if m.dir == "" {
		return
	}
	dir := m.ckptDir(id)
	entries, _ := os.ReadDir(dir) // already gone: nothing to count
	if durable.Remove(dir) == nil {
		jobGCPruned.Add(int64(len(entries)))
	}
}

// gcOrphans removes checkpoint directories owned by no unfinished job —
// terminal jobs' leftovers and dirs of jobs the journal no longer
// tracks. It is the one listing of ckpt/ and runs once, at startup.
func (m *jobManager) gcOrphans() {
	entries, err := os.ReadDir(filepath.Join(m.dir, "ckpt"))
	if err != nil {
		return
	}
	for _, e := range entries {
		if j, ok := m.lookup(e.Name()); e.IsDir() && (!ok || j.terminalNow()) {
			m.removeCkpts(e.Name())
		}
	}
}

// close runs the final compaction and closes the journal. Called after
// the engine has drained every running job.
func (m *jobManager) close() {
	m.compact()
	m.jl.close()
}

// admittedJob is one job holding an admission slot: created by
// Engine.admit, consumed exactly once by run.
type admittedJob struct {
	e   *Engine
	job *Job
	art *artifact
	// done releases the admission slot and the engine tracking ref.
	done func()
}

// run executes the job to a terminal state (or a durable requeue at
// engine shutdown). It is the engine's single solve path: budgets,
// worker checkout, one supervised and gated CG, pool return, job
// bookkeeping. What differs between solves is only the supervisor's loss
// policy: a fault plan without "recovery":"migrate" shrinks and regrows
// in place; everything else — plain solves included, so a genuine PE
// panic still migrates — replaces a dead worker with a fresh one from the
// pool at full width.
func (aj *admittedJob) run(ctx context.Context) (*SolveResult, error) {
	e, a, j, req := aj.e, aj.art, aj.job, aj.job.req
	defer aj.done()

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

	b := rhsFor(req.RHSSeed, n)
	x := make([]float64, n)
	normB := norm2(b)

	cfg := rec.SuperviseConfig{
		Solver: solver.Config{
			MaxIter:         maxIter,
			Tol:             tol,
			CheckpointEvery: e.cfg.CheckpointEvery,
			OnCheckpoint: func(st *solver.State) {
				if d := e.cfg.checkpointDelay; d > 0 {
					time.Sleep(d)
				}
				j.mu.Lock()
				j.st.CheckpointIter = st.Iter // where a migration or a restart resumes
				j.mu.Unlock()
				j.emit(event{Event: "progress", Iter: st.Iter, Residual: norm2(st.R) / normB})
			},
		},
		// The supervisor lands every in-flight snapshot in the job's
		// store, so a process restart resumes instead of recomputing.
		Store:  e.jobs.store(j.st.ID),
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
		// maxAttempts bounds the replacements; none left is −1, zero
		// being the supervisor's "default".
		cfg.MaxShrinks = e.cfg.maxAttempts - attempts
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
			return w, nil
		}
	}
	out, serr := rec.Supervise(w, &rec.System{
		Mesh: a.mesh, Material: a.mat, Part: a.part,
		Shift: shift, MassNode: a.massNode, NodeOf: a.nodeOf,
	}, b, x, cfg)

	j.mu.Lock()
	migrations := j.st.Migrations // this run's and, for a replayed job, the journaled ones
	j.mu.Unlock()
	res := &SolveResult{
		JobID: j.st.ID, CacheHit: j.cacheHit, Fingerprints: a.fp,
		Width:   out.Part.P,
		Shrinks: out.Shrinks, Grows: out.Grows, DeadPEs: out.DeadPEs, RevivedPEs: out.RevivedPEs,
		Migrations: out.Migrations + migrations,
		WallMS:     float64(time.Since(start)) / float64(time.Millisecond),
	}
	if sr := out.Result; sr != nil {
		res.Iterations, res.Residual, res.Converged = sr.Iterations, sr.Residual, sr.Converged
		if sr.Converged {
			res.Certified, res.CertResidual = true, sr.TrueResidual
		}
	}
	res.SolutionFP = regress.Vector(x)
	res.SolutionNorm = norm2(x)
	if h := e.answered; h != nil {
		h(b, x)
	}

	// The worker goes back to the pool only if its own Dist finished the
	// solve alive; a Dist the supervisor rebuilt belongs to this solve
	// alone. (w is nil when the last replacement found no worker.)
	interrupted := errors.Is(serr, solver.ErrInterrupted)
	if w != nil {
		healthy := out.Dist == w && (serr == nil || interrupted)
		if healthy && cfg.Plan != nil {
			// Disarm before pooling: a healthy worker must not carry
			// this solve's plan into the next request.
			w.InjectFaults(nil)
		}
		a.release(w, healthy)
	}
	if w == nil || out.Dist != w {
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
	if aj.e.jobs.jl != nil {
		aj.e.jobs.requeue(aj.job)
		return res, err
	}
	return aj.end(JobCanceled, res, err)
}
