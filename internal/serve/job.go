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
	fp       Fingerprints
	cacheHit bool
	accepted time.Time

	mu         sync.Mutex
	state      JobState
	attempts   int
	migrations int
	ckptIter   int
	ckptState  *solver.State
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

	// Durable-resume state loaded at replay, consumed by the first
	// attempt.
	resumeState   *solver.State
	resumeKernels int64
	resumePlan    string
	resumed       bool
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

// checkpoint records an in-flight solver snapshot: the migration and
// restart resume point. The State's slices are private copies (the
// solver never aliases them), so retaining the pointer is safe.
func (j *Job) checkpoint(st *solver.State) {
	j.mu.Lock()
	j.ckptState = st
	j.ckptIter = st.Iter
	j.mu.Unlock()
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
			sess := SessionSpec{Scenario: r.Req.Scenario, PEs: r.Req.PEs,
				Method: r.Req.Method, NodeSize: r.Req.NodeSize}
			if k, err := sess.key(cfg); err == nil {
				j.key = k
			}
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
		// replay. A request that no longer validates (e.g. a journal
		// from a build with wider limits) fails cleanly instead.
		j.state = JobQueued
		j.replayed = true
		if err := j.req.Validate(); err != nil {
			m.fail(j, nil, fmt.Errorf("serve: replayed job %s: %w", j.id, err))
			continue
		}
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
		fp:       a.fp,
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

// statuses snapshots every tracked job in acceptance order.
func (m *jobManager) statuses() []JobStatus {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
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
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	recs := make([]*jobRecord, 0, 2*len(jobs))
	for _, j := range jobs {
		recs = append(recs, &jobRecord{Op: "accept", ID: j.id, Time: j.accepted, Idem: j.idem, Req: j.req})
		recs = append(recs, j.stateRecord())
	}
	m.jl.compact(recs)
}

// setRunning moves a queued job into execution (counting the attempt).
func (m *jobManager) setRunning(j *Job) {
	j.mu.Lock()
	j.state = JobRunning
	j.attempts++
	j.mu.Unlock()
	m.logState(j)
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

// complete finishes a job successfully.
func (m *jobManager) complete(j *Job, res *SolveResult) {
	j.mu.Lock()
	j.state = JobCompleted
	j.result = res
	j.errMsg = ""
	j.err = nil
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	jobCompleted.Add(1)
	m.logState(j)
	j.emit(event{Event: "result", Result: res})
	m.gcJob(j)
}

// fail finishes a job with an error the client cannot retry away.
func (m *jobManager) fail(j *Job, res *SolveResult, err error) {
	m.finishErr(j, JobFailed, res, err)
	jobFailed.Add(1)
}

// cancel finishes a job stopped by its deadline or its caller.
func (m *jobManager) cancel(j *Job, res *SolveResult, err error) {
	m.finishErr(j, JobCanceled, res, err)
	jobCanceled.Add(1)
}

func (m *jobManager) finishErr(j *Job, state JobState, res *SolveResult, err error) {
	j.mu.Lock()
	j.state = state
	j.result = res
	j.err = err
	j.errMsg = ""
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	m.logState(j)
	j.emit(event{Event: "error", Error: j.errMsg, Result: res})
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
		if sub, err := os.ReadDir(d.path); err == nil {
			for _, f := range sub {
				if info, err := f.Info(); err == nil && !f.IsDir() {
					d.size += info.Size()
				}
			}
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
// written against a different mesh. ok is false when there is nothing
// (or nothing valid) to resume from.
func (m *jobManager) loadResume(id string, meshID uint64) (st *solver.State, kernels int64, plan string, ok bool) {
	if m.dir == "" {
		return nil, 0, "", false
	}
	store, err := rec.NewStore(m.ckptDir(id))
	if err != nil {
		return nil, 0, "", false
	}
	ck, _, err := store.Latest()
	if err != nil || ck.MeshID != meshID {
		return nil, 0, "", false
	}
	return ck.State(), ck.FaultIter, ck.FaultPlan, true
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
// Engine.acceptJob, consumed exactly once by run.
type admittedJob struct {
	e    *Engine
	job  *Job
	art  *artifact
	spec SolveSpec
	// done releases the admission slot and the engine tracking ref;
	// run defers it.
	done func()
}

// run executes the job to a terminal state (or a durable requeue at
// engine shutdown). It is the engine's single solve path: budgets,
// worker checkout, plain / elastic-supervised / migrating CG,
// certification, pool return, job bookkeeping.
func (aj *admittedJob) run(ctx context.Context) (*SolveResult, error) {
	e, a, j, spec := aj.e, aj.art, aj.job, aj.spec
	defer aj.done()

	// Wait for a run slot (the queued half of admission).
	runRelease, err := e.acquireRun(ctx)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return nil, aj.park(nil, fmt.Errorf("serve: %w while queued", ErrClosed))
		}
		solvesCanceled.Add(1)
		cerr := fmt.Errorf("serve: %w while queued: %w", ErrCanceled, err)
		e.jobs.cancel(j, nil, cerr)
		return nil, cerr
	}
	defer runRelease()
	e.jobs.setRunning(j)
	if hold := e.holdSolve; hold != nil {
		hold()
	}

	var plan *fault.Plan
	planStr := spec.Faults
	if j.resumed && j.resumePlan != planStr {
		// The durable checkpoint recorded the plan as of the snapshot;
		// trust it over the original request (it is the same canonical
		// string unless every event was already consumed).
		planStr = j.resumePlan
	}
	if planStr != "" {
		if plan, err = fault.Parse(planStr); err != nil {
			ferr := fmt.Errorf("%w: fault plan: %w", ErrBadRequest, err)
			solvesFailed.Add(1)
			e.jobs.fail(j, nil, ferr)
			return nil, ferr
		}
	}
	// A plan with revive events needs the elastic supervisor (only it
	// regrows); anything else can migrate between full-width workers.
	elastic := plan != nil && spec.Recovery != RecoveryMigrate

	// Budgets: iteration cap and wall deadline, both clamped to the
	// engine limits. The deadline fires through ctx at checkpoint
	// boundaries, leaving the worker healthy.
	n := 3 * a.mesh.NumNodes()
	maxIter := spec.MaxIter
	if maxIter <= 0 || maxIter > e.cfg.MaxIter {
		maxIter = e.cfg.MaxIter
	}
	if def := 4 * n; spec.MaxIter <= 0 && def < maxIter {
		maxIter = def
	}
	deadline := spec.Deadline
	if deadline <= 0 || deadline > e.cfg.MaxDeadline {
		deadline = e.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	tol := spec.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	shift := spec.Shift
	if shift <= 0 {
		shift = 20
	}

	// The per-job durable checkpoint store: every in-flight snapshot
	// lands here (pruned to a bounded tail), so a migration or a
	// process restart resumes instead of recomputing.
	var store *rec.Store
	if e.jobs.durable() {
		if store, err = rec.NewStore(e.jobs.ckptDir(j.id)); err != nil {
			store = nil
			jobJournalErrors.Add(1)
		}
	}

	b := rhsFor(spec.RHSSeed, n)
	x := make([]float64, n)
	normB := norm2(b)

	// inj is the current attempt's injector (nil without a plan on the
	// non-elastic path); kernelBase is the global kernel count already
	// executed by dead workers and previous processes.
	var inj *fault.Injector
	kernelBase := j.resumeKernels
	injIter := func() int64 {
		if inj != nil {
			return inj.Iter()
		}
		return kernelBase
	}

	emit := func(st *solver.State) {
		if d := e.cfg.CheckpointDelay; d > 0 {
			time.Sleep(d)
		}
		if slow := e.slowCheckpoint; slow != nil {
			slow(st.Iter)
		}
		j.checkpoint(st)
		if store != nil {
			if !elastic {
				// The elastic supervisor writes its own checkpoints
				// (with the shrunk partition); here we are the writer.
				ck := &rec.Checkpoint{
					MeshID: a.meshID,
					P:      int32(a.part.P),
					ElemPE: a.part.ElemPE,
					Iter:   int64(st.Iter),
					Rho:    st.Rho,
					X:      st.X,
					R:      st.R,
					PDir:   st.P,

					FaultIter: injIter(),
				}
				if plan != nil {
					ck.FaultPlan = plan.String()
				}
				if _, err := store.Save(ck); err != nil {
					obs.GetCounter("recover.checkpoint.errors").Add(1)
				}
			}
			store.Prune(jobKeepCkpts)
		}
		rel := norm2(st.R)
		if normB > 0 {
			rel /= normB
		}
		j.emit(event{Event: "progress", Iter: st.Iter, Residual: rel})
		if spec.OnProgress != nil {
			streamEvents.Add(1)
			spec.OnProgress(Progress{Iter: st.Iter, Residual: rel})
		}
	}

	scfg := solver.Config{
		MaxIter:         maxIter,
		Tol:             tol,
		CheckpointEvery: e.cfg.CheckpointEvery,
		OnCheckpoint:    emit,
	}

	res := &SolveResult{JobID: j.id, CacheHit: j.cacheHit, Fingerprints: a.fp, Width: a.part.P}
	start := time.Now()
	finish := func(sr *solver.Result, d *par.Dist) {
		if sr != nil {
			res.Iterations = sr.Iterations
			res.Residual = sr.Residual
			res.Converged = sr.Converged
		}
		res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		if d != nil {
			certify(res, d, shift, a.massNode, b, x, normB)
		}
		res.SolutionFP = regress.Vector(x)
		res.SolutionNorm = norm2(x)
	}

	if elastic {
		return aj.runElastic(ctx, plan, scfg, b, x, shift, kernelBase, store, res, finish)
	}

	// The migrating path: plain CG on a checked-out worker; a worker
	// death (kill fault, PE panic, barrier poison) re-dispatches the
	// job onto a fresh full-width worker resuming from the newest
	// checkpoint. Because the artifacts are canonical and the State
	// snapshot is the exact tuple entering its iteration, the migrated
	// trajectory is bit-identical to an uninterrupted solve.
	resume := j.resumeState
	maxAttempts := e.cfg.MaxAttempts
	for {
		w, err := a.checkout()
		if err != nil {
			solvesFailed.Add(1)
			e.jobs.fail(j, nil, err)
			return nil, err
		}
		if plan != nil {
			if inj, err = w.dist.InjectFaults(plan); err != nil {
				a.release(w, false)
				ferr := fmt.Errorf("%w: arming fault plan: %w", ErrBadRequest, err)
				solvesFailed.Add(1)
				e.jobs.fail(j, nil, ferr)
				return nil, ferr
			}
			inj.Advance(kernelBase)
		}
		if resume == nil {
			for i := range x {
				x[i] = 0
			}
		}
		scfg.Resume = resume
		scfg.Interrupt = func(int) bool { return ctx.Err() != nil || e.closingNow() }
		op := par.Operator{D: w.dist, Shift: shift, MassNode: a.massNode}
		sr, serr := solver.CG(op, b, x, scfg)
		switch {
		case serr == nil:
			finish(sr, w.dist)
			res.Migrations = j.Status().Migrations
			if plan != nil {
				// Disarm before pooling: a healthy worker must not
				// carry this solve's plan into the next request.
				w.dist.InjectFaults(nil)
			}
			a.release(w, true)
			solvesOK.Add(1)
			e.jobs.complete(j, res)
			return res, nil
		case errors.Is(serr, solver.ErrInterrupted):
			if plan != nil {
				w.dist.InjectFaults(nil)
			}
			a.release(w, true)
			if e.closingNow() {
				finish(sr, nil)
				return res, aj.park(res, fmt.Errorf("serve: %w: engine closing", ErrClosed))
			}
			res.Canceled = true
			finish(sr, nil)
			solvesCanceled.Add(1)
			cerr := fmt.Errorf("serve: %w: %w", ErrCanceled, ctx.Err())
			e.jobs.cancel(j, res, cerr)
			return res, cerr
		default:
			deadPE, died := rec.DeadPE(serr)
			if !died && errors.Is(serr, par.ErrPoisoned) {
				died, deadPE = true, -1
			}
			last := j.lastCheckpoint()
			if died && j.Status().Attempts < maxAttempts && last != nil {
				// Live migration: the worker is dead, the job is not.
				kernelBase = injIter()
				a.release(w, false)
				resume = last
				e.jobs.migrated(j, deadPE, last.Iter)
				continue
			}
			finish(sr, nil)
			res.Migrations = j.Status().Migrations
			a.release(w, false)
			solvesFailed.Add(1)
			ferr := fmt.Errorf("serve: solve failed: %w", serr)
			e.jobs.fail(j, res, ferr)
			return res, ferr
		}
	}
}

// lastCheckpoint returns the newest in-flight snapshot.
func (j *Job) lastCheckpoint() *solver.State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckptState
}

// park requeues a durable job interrupted by engine shutdown (the
// next process resumes it from its checkpoint); a volatile job is
// canceled — there is nowhere for it to survive.
func (aj *admittedJob) park(res *SolveResult, err error) error {
	if aj.e.jobs.durable() {
		aj.e.jobs.requeue(aj.job)
		return err
	}
	solvesCanceled.Add(1)
	aj.e.jobs.cancel(aj.job, res, err)
	return err
}

// runElastic is the supervised path for plans that shrink and regrow:
// recover.Supervise owns the injector and absorbs
// kill→shrink→revive→grow transitions; the wall deadline and engine
// shutdown ride its Stop hook. Durable checkpoints flow through the
// supervisor itself so they carry the live (possibly shrunk)
// partition.
func (aj *admittedJob) runElastic(ctx context.Context, plan *fault.Plan, scfg solver.Config,
	b, x []float64, shift float64, kernelBase int64, store *rec.Store,
	res *SolveResult, finish func(*solver.Result, *par.Dist)) (*SolveResult, error) {

	e, a, j := aj.e, aj.art, aj.job
	w, err := a.checkout()
	if err != nil {
		solvesFailed.Add(1)
		e.jobs.fail(j, nil, err)
		return nil, err
	}
	if j.resumeState != nil {
		scfg.Resume = j.resumeState
	}
	solvesSupervise.Add(1)
	sys := &rec.System{
		Mesh: a.mesh, Material: a.mat, Part: a.part,
		Shift: shift, MassNode: a.massNode, NodeOf: a.nodeOf,
	}
	out, serr := rec.Supervise(w.dist, sys, b, x, rec.SuperviseConfig{
		Solver:         scfg,
		Plan:           plan,
		Store:          store,
		MeshID:         a.meshID,
		AdvanceKernels: kernelBase,
		Stop:           func() bool { return ctx.Err() != nil || e.closingNow() },
	})
	var final *par.Dist
	healthy := false
	if out != nil {
		res.Shrinks = out.Shrinks
		res.Grows = out.Grows
		res.Migrations = out.Migrations
		res.DeadPEs = out.DeadPEs
		res.RevivedPEs = out.RevivedPEs
		if out.Part != nil {
			res.Width = out.Part.P
		}
		final = out.Dist
		healthy = out.Dist == w.dist && serr == nil
	}
	var sr *solver.Result
	if out != nil {
		sr = out.Result
	}
	switch {
	case serr == nil:
		finish(sr, final)
		if healthy {
			w.dist.InjectFaults(nil)
		}
		a.release(w, healthy)
		if final != nil && final != w.dist {
			final.Close()
		}
		solvesOK.Add(1)
		e.jobs.complete(j, res)
		return res, nil
	case errors.Is(serr, solver.ErrInterrupted):
		if final == w.dist {
			w.dist.InjectFaults(nil)
		}
		a.release(w, final == w.dist)
		if final != nil && final != w.dist {
			final.Close()
		}
		if e.closingNow() {
			finish(sr, nil)
			return res, aj.park(res, fmt.Errorf("serve: %w: engine closing", ErrClosed))
		}
		res.Canceled = true
		finish(sr, nil)
		solvesCanceled.Add(1)
		cerr := fmt.Errorf("serve: %w: %w", ErrCanceled, ctx.Err())
		e.jobs.cancel(j, res, cerr)
		return res, cerr
	default:
		finish(sr, nil)
		a.release(w, false)
		if final != nil && final != w.dist {
			final.Close()
		}
		solvesFailed.Add(1)
		ferr := fmt.Errorf("serve: supervised solve failed: %w", serr)
		e.jobs.fail(j, res, ferr)
		return res, ferr
	}
}
