package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// statusFields renders a status field by field as its wire JSON, leaving
// out NextEvent (the event buffer is not journaled).
func statusFields(t *testing.T, st JobStatus) map[string]string {
	t.Helper()
	out := make(map[string]string)
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "NextEvent" {
			continue
		}
		b, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			t.Fatalf("JobStatus.%s: %v", name, err)
		}
		out[name] = string(b)
	}
	return out
}

func sameStatus(t *testing.T, what string, got, want JobStatus) {
	t.Helper()
	g, w := statusFields(t, got), statusFields(t, want)
	for name := range w {
		if g[name] != w[name] {
			t.Errorf("%s: JobStatus.%s is %s, was %s", what, name, g[name], w[name])
		}
	}
}

// TestStatusJournalRoundTrip: everything a job's status shows survives
// the journal, both ways it gets there. Three jobs are driven through
// the manager's own transitions — queued → running → parked → replayed →
// running → migrated → completed, → failed, → canceled — and each must
// read the same (i) after acceptRecord/stateRecord → encode → decode →
// apply into a fresh Job, and (ii) after a restart on the compacted
// journal. Every JobStatus field but NextEvent must be non-zero on at
// least one of the three, so a field added to the status and not to the
// record (or to one direction of the conversion) fails here.
func TestStatusJournalRoundTrip(t *testing.T) {
	cfg := Config{JournalDir: t.TempDir()}.withDefaults()
	open := func() (*jobManager, []*Job) {
		m, replay, err := newJobManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, replay
	}
	art := &artifact{key: Key{Scenario: "sf10", P: 4, Method: "rcb", NodeSize: 2}}
	req := func(idem string) *SolveRequest {
		return &SolveRequest{Scenario: "sf10", PEs: 4, NodeSize: 2, Tol: 1e-9, IdempotencyKey: idem}
	}

	// The first process accepts three jobs, dispatches them, and is shut
	// down under them.
	m1, _ := open()
	for _, idem := range []string{"", "retry-me", ""} {
		j, dup := m1.create(req(idem), art, false)
		if dup != nil {
			t.Fatalf("fresh job bound to %s", dup.st.ID)
		}
		m1.setRunning(j)
		m1.requeue(j)
	}
	m1.close()

	// The second replays them and takes each to a different end.
	m2, replay := open()
	if len(replay) != 3 {
		t.Fatalf("%d jobs replayed, want 3", len(replay))
	}
	for i, j := range replay {
		m2.setRunning(j)
		j.mu.Lock()
		j.st.CheckpointIter = 10 * (i + 1) // what run's checkpoint hook does
		j.mu.Unlock()
	}
	m2.migrated(replay[0], 1, 10)
	m2.finish(replay[0], JobCompleted, &SolveResult{JobID: replay[0].st.ID, Iterations: 41, Converged: true, Certified: true, Migrations: 1, Width: 4, SolutionFP: 0xfeed}, nil)
	m2.finish(replay[1], JobFailed, nil, errors.New("serve: solve failed: <worker> & \"pool\" lost"))
	m2.finish(replay[2], JobCanceled, &SolveResult{JobID: replay[2].st.ID, Iterations: 30, Canceled: true, Width: 4}, ErrCanceled)

	exercised := make(map[string]bool)
	for _, j := range replay {
		want := j.Status()
		for _, f := range reflect.VisibleFields(reflect.TypeOf(want)) {
			if !reflect.ValueOf(want).FieldByIndex(f.Index).IsZero() {
				exercised[f.Name] = true
			}
		}

		// (i) The conversion pair, through the frame codec.
		var back []*jobRecord
		for _, r := range []*jobRecord{j.acceptRecord(), j.stateRecord()} {
			frame, err := encodeJournalRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			rec, n, err := decodeJournalRecord(frame)
			if err != nil || n != len(frame) {
				t.Fatalf("decoding a %s record: %d of %d bytes, %v", r.Op, n, len(frame), err)
			}
			back = append(back, rec)
		}
		fresh := newJob(back[0].Req, j.st.Key, false)
		fresh.apply(back[0])
		fresh.apply(back[1])
		sameStatus(t, "apply("+string(want.State)+")", fresh.Status(), want)
		select {
		case <-fresh.done:
		default:
			t.Errorf("a %s job rebuilt from its records is not done", want.State)
		}
		if (fresh.err == nil) != (j.err == nil) || fresh.err != nil && fresh.err.Error() != want.Error {
			t.Errorf("a %s job rebuilt from its records fails with %v, the original with %v", want.State, fresh.err, j.err)
		}
		if !reflect.DeepEqual(fresh.req, j.req) {
			t.Errorf("request after the round trip: %+v, was %+v", fresh.req, j.req)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(JobStatus{})) {
		if f.Name != "NextEvent" && !exercised[f.Name] {
			t.Errorf("JobStatus.%s is zero on all three jobs: drive one that sets it, or the round trip does not cover it", f.Name)
		}
	}

	// (ii) A third process, reading what the second compacted on close.
	m2.close()
	m3, replay3 := open()
	defer m3.close()
	if len(replay3) != 0 {
		t.Fatalf("%d terminal jobs replayed", len(replay3))
	}
	for _, j := range replay {
		want := j.Status()
		again, ok := m3.lookup(want.ID)
		if !ok {
			t.Fatalf("%s job %s lost across the restart", want.State, want.ID)
		}
		sameStatus(t, "restart("+string(want.State)+")", again.Status(), want)
	}
	if m3.lookupIdem("retry-me") == nil {
		t.Error("the idempotency key no longer binds after the restart")
	}
}

// TestCheckpointDiskBound exhibits the bound docs/SERVICE.md states for
// the checkpoint tree: at any moment ckpt/ holds one directory per
// unfinished job and nothing else, each with at most jobKeepCkpts
// snapshots (plus the one temp file of a write in flight), and it is
// empty once every job is terminal — through three concurrent jobs, a
// worker kill with migration, a shutdown that parks a running job, and
// the restart that finishes it.
func TestCheckpointDiskBound(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	root := filepath.Join(dir, "ckpt")
	maxDirs, maxSnaps := 0, 0
	// observe checks the tree once against e's job table. A directory of a
	// terminal job is allowed for the moment between the job's terminal
	// journal record and the removal that follows it, no longer.
	observe := func(e *Engine) {
		t.Helper()
		entries, _ := os.ReadDir(root) // absent until the first run opens a store
		if len(entries) > maxDirs {
			maxDirs = len(entries)
		}
		for _, d := range entries {
			path := filepath.Join(root, d.Name())
			files, err := os.ReadDir(path)
			if err != nil {
				continue // removed between the two listings
			}
			snaps, temps := 0, 0
			for _, f := range files {
				switch filepath.Ext(f.Name()) {
				case ".qck":
					snaps++
				case ".tmp":
					temps++
				default:
					t.Fatalf("stray file %s in %s", f.Name(), path)
				}
			}
			if snaps > jobKeepCkpts || temps > 1 {
				t.Fatalf("%s holds %d snapshots and %d temp files, want ≤ %d and ≤ 1", path, snaps, temps, jobKeepCkpts)
			}
			if snaps > maxSnaps {
				maxSnaps = snaps
			}
			if st, ok := e.Job(d.Name()); !ok || st.State.terminal() {
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					if _, err := os.Stat(path); os.IsNotExist(err) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s outlives its job (tracked %v, state %q)", path, ok, st.State)
					}
				}
			}
		}
	}
	// watch observes until done says stop.
	watch := func(e *Engine, what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); !done(); time.Sleep(time.Millisecond) {
			observe(e)
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, e.Jobs())
			}
		}
		observe(e)
	}
	state := func(e *Engine, id string) JobStatus {
		t.Helper()
		st, ok := e.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		return st
	}

	gc0, requeued0 := jobGCPruned.Value(), jobRequeued.Value()
	e1 := newTestEngine(t, Config{JournalDir: dir, MaxConcurrent: 3, CheckpointDelay: 5 * time.Millisecond})
	submit := func(faults, recovery string) string {
		t.Helper()
		st, err := e1.Submit(&SolveRequest{Scenario: "tiny-disk", PEs: 4, Tol: 1e-12, Faults: faults, Recovery: recovery})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	// Three run at once from the moment the watch starts, one of them
	// losing its worker; the fourth gets a run slot when the first of them
	// finishes and is held there until two are done, so it is the one the
	// shutdown catches mid-solve.
	var dispatched atomic.Int32
	start, release := make(chan struct{}), make(chan struct{})
	e1.holdSolve = func() {
		if dispatched.Add(1) <= 3 {
			<-start
		} else {
			<-release
		}
	}
	openStart := sync.OnceFunc(func() { close(start) })
	openRelease := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() { openStart(); openRelease() }) // before e1.Close, on any exit
	plain := submit("", "")
	killed := submit("kill:pe=1,iter=5", RecoveryMigrate)
	submit("", "")
	watch(e1, "the first three jobs to be dispatched", func() bool { return dispatched.Load() == 3 })
	late := submit("", "") // every run slot is taken: this is the fourth dispatch
	openStart()
	watch(e1, "the plain and the killed job to finish", func() bool {
		return state(e1, plain).State.terminal() && state(e1, killed).State.terminal()
	})
	openRelease()
	watch(e1, "the late job to be three checkpoints in", func() bool {
		st := state(e1, late)
		if st.State.terminal() {
			t.Fatalf("the late job finished before the shutdown (state %s) — pacing too weak", st.State)
		}
		return st.CheckpointIter >= 3
	})
	if st := state(e1, killed); st.State != JobCompleted || st.Migrations != 1 {
		t.Fatalf("killed job: %+v", st)
	}
	if maxDirs < 3 || maxSnaps != jobKeepCkpts {
		t.Fatalf("saw at most %d directories at once and %d snapshots in one, want ≥ 3 and a full window of %d — the observations prove nothing", maxDirs, maxSnaps, jobKeepCkpts)
	}
	e1.Close() // parks what is still running; every runner has returned
	observe(e1)
	if d := jobRequeued.Value() - requeued0; d < 1 {
		t.Fatalf("serve.job.requeued advanced by %d on shutdown, want ≥ 1", d)
	}
	if _, err := os.Stat(filepath.Join(root, late)); err != nil {
		t.Fatalf("the parked job kept no checkpoints: %v", err)
	}

	e2 := newTestEngine(t, Config{JournalDir: dir, MaxConcurrent: 3})
	watch(e2, "the replayed jobs to finish", func() bool {
		for _, st := range e2.Jobs() {
			if !st.State.terminal() {
				return false
			}
		}
		return true
	})
	if st := state(e2, late); st.State != JobCompleted || !st.Replayed {
		t.Fatalf("parked job after the restart: %+v", st)
	}
	e2.Close()
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Fatalf("ckpt/ after every job finished: %d entries, %v", len(entries), err)
	}
	if d := jobGCPruned.Value() - gc0; d < 4 {
		t.Fatalf("serve.job.gc.pruned advanced by %d over four finished jobs, want ≥ 4", d)
	}
}
