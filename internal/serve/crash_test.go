package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	rec "repro/internal/recover"
	"repro/internal/testutil"
)

var errCrashed = errors.New("crash_test: the process is dead")

// crasher is the durable.Hook of one enumeration run: it lets the first
// at−1 steps through, ends the process's writing at step at — nothing of
// it happens, or, when short is set and the step is a write, half of its
// bytes land — and fails every step after it, which is all a dead process
// does to a disk. at 0 only counts.
type crasher struct {
	at    int
	short bool

	mu    sync.Mutex
	steps int
	kinds map[string]int // steps let through, by kind
	fired string         // the step the crash struck, "" while the process lives
	// landed is, per checkpoint directory, the newest snapshot renamed into
	// place before the crash; delivered, per job id, the newest iteration
	// the solver of the engine running at the crash had handed over.
	landed    map[string]string
	live      *Engine
	delivered map[string]int
}

func (c *crasher) watch(e *Engine) {
	c.mu.Lock()
	c.live = e
	c.mu.Unlock()
}

func (c *crasher) hook(step, path string, n int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired != "" {
		return 0, errCrashed
	}
	if c.steps++; c.steps == c.at {
		c.fired = step
		c.delivered = make(map[string]int)
		if c.live != nil {
			for _, st := range c.live.Jobs() {
				c.delivered[st.ID] = st.CheckpointIter
			}
		}
		if step == "write" && c.short {
			return n / 2, errCrashed
		}
		return 0, errCrashed
	}
	if c.kinds == nil {
		c.kinds, c.landed = make(map[string]int), make(map[string]string)
	}
	c.kinds[step]++
	if step == "rename" && filepath.Ext(path) == ".qck" {
		if dir, name := filepath.Split(path); name > c.landed[dir] {
			c.landed[dir] = name
		}
	}
	return n, nil
}

func (c *crasher) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired != ""
}

// TestCrashAtEveryDurableStep is the crash contract of docs/RELIABILITY.md,
// enumerated: one lifecycle — a journaled engine accepts a job that loses
// its worker and migrates, and a plain one, each checkpointing through the
// Keep = 3 recycling window; both complete; the engine compacts and closes;
// a second engine restarts on the directory and closes — is first run whole
// to count its durable steps (every create, write, fsync, truncate, rename
// and unlink internal/durable performs), and then once per step N with the
// process's writing ended at N. A fresh engine on what the dead one left
// must show that
//
//   - no accepted job is lost: every job whose Submit returned before the
//     crash completes, bit-identical to an uninterrupted solve;
//   - none completes twice: a job whose completion a client awaited before
//     the crash is not run again;
//   - a torn tail costs at most one journal record, and none when the
//     crash struck between writes;
//   - every snapshot under a .qck name decodes, Latest() is at least the
//     newest one renamed into place, and never more than Keep − 1
//     snapshots behind the newest one the solver delivered;
//   - no *.tmp survives: not beside the journal once the engine is open,
//     not anywhere once the jobs have finished.
//
// Where step N is a write the run is made twice, the write leaving nothing
// and leaving half of itself; for any other step the two are the same run.
// This is process-crash mode: what a write returned for stays. Power loss
// (an un-synced directory entry) is not modelled, as it is not covered.
func TestCrashAtEveryDurableStep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	withObs(t)
	t.Cleanup(func() { durable.Hook = nil })
	cfg := func(dir string) Config {
		return Config{JournalDir: dir, Scenarios: tinyResolver, CheckpointEvery: 2, MaxAttempts: 16}
	}
	reqs := []*SolveRequest{
		{Scenario: "tiny-crash", PEs: 2, Tol: 1e-6, Faults: "kill:pe=1,iter=8", Recovery: RecoveryMigrate, IdempotencyKey: "killed"},
		{Scenario: "tiny-crash", PEs: 2, Tol: 1e-6, RHSSeed: 3, IdempotencyKey: "plain"},
	}
	// The uninterrupted answers, from a volatile engine.
	want := make(map[string]uint64)
	e0 := newTestEngine(t, Config{CheckpointEvery: 2})
	for _, r := range reqs {
		plain := *r
		plain.Faults, plain.Recovery, plain.IdempotencyKey = "", "", ""
		res, err := e0.Solve(context.Background(), &plain)
		if err != nil || !res.Certified {
			t.Fatalf("reference solve: %+v, %v", res, err)
		}
		want[r.IdempotencyKey] = res.SolutionFP
	}
	e0.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// run drives the lifecycle under c in a fresh directory, stops where the
	// crash strikes, and holds what is left to the contract. It reports
	// whether the lifecycle ran to its end.
	run := func(c *crasher) (whole bool) {
		dir := t.TempDir()
		what := fmt.Sprintf("crash at step %d (short write %v)", c.at, c.short)
		accepted := make(map[string]string) // idempotency key → job id, as acknowledged
		awaited := make(map[string]bool)    // job ids whose completion was acknowledged
		durable.Hook = c.hook
		func() {
			e1, err := NewEngine(cfg(dir))
			if err != nil {
				if !c.dead() {
					t.Fatalf("%s: first engine: %v", what, err)
				}
				return
			}
			c.watch(e1)
			defer e1.Close()
			for _, r := range reqs {
				st, err := e1.Submit(r)
				if c.dead() {
					return
				}
				if err != nil {
					t.Fatalf("%s: submit: %v", what, err)
				}
				accepted[r.IdempotencyKey] = st.ID
				res, err := e1.AwaitJob(ctx, st.ID)
				if c.dead() {
					return
				}
				if err != nil || res.SolutionFP != want[r.IdempotencyKey] {
					t.Fatalf("%s: job %s: %+v, %v", what, r.IdempotencyKey, res, err)
				}
				awaited[st.ID] = true
			}
		}()
		if !c.dead() {
			e2, err := NewEngine(cfg(dir))
			if err == nil {
				e2.Close()
			} else if !c.dead() {
				t.Fatalf("%s: restart: %v", what, err)
			}
		}
		whole = !c.dead()
		durable.Hook = nil

		// What the dead process left, before anything touches it.
		root := filepath.Join(dir, "ckpt")
		jobDirs, _ := os.ReadDir(root)
		for _, d := range jobDirs {
			store, err := rec.NewStore(filepath.Join(root, d.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files, _ := os.ReadDir(store.Dir())
			snaps := 0
			for _, f := range files {
				if filepath.Ext(f.Name()) != ".qck" {
					continue
				}
				snaps++
				data, err := os.ReadFile(filepath.Join(store.Dir(), f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rec.Decode(data); err != nil {
					t.Errorf("%s: %s/%s is readable under a snapshot name and does not decode: %v", what, d.Name(), f.Name(), err)
				}
			}
			if snaps > jobKeepCkpts {
				t.Errorf("%s: %s holds %d snapshots, window is %d", what, d.Name(), snaps, jobKeepCkpts)
			}
			ck, path, err := store.Latest()
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: Latest(%s): %v", what, d.Name(), err)
			}
			newest := c.landed[store.Dir()+string(filepath.Separator)]
			if newest != "" && (err != nil || filepath.Base(path) < newest) {
				t.Errorf("%s: Latest(%s) is %q, %s was renamed into place before the crash", what, d.Name(), path, newest)
			}
			// Snapshots are CheckpointEvery = 2 iterations apart.
			if floor := c.delivered[d.Name()] - 2*(jobKeepCkpts-1); floor > 0 && (err != nil || int(ck.Iter) < floor) {
				t.Errorf("%s: Latest(%s) = %v, %v; the solver had delivered iteration %d", what, d.Name(), ck, err, c.delivered[d.Name()])
			}
		}

		// The next process.
		dropped0, replays0 := jobJournalDropped.Value(), jobReplays.Value()
		ev, err := NewEngine(cfg(dir))
		if err != nil {
			t.Fatalf("%s: the engine after the crash: %v", what, err)
		}
		defer ev.Close()
		if d := jobJournalDropped.Value() - dropped0; d > 1 || d == 1 && !(c.short && c.fired == "write") {
			t.Errorf("%s: replay dropped %d records (crash struck a %s)", what, d, c.fired)
		}
		if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(litter) != 0 {
			t.Errorf("%s: %v beside the journal after the engine opened", what, litter)
		}
		replayed := 0
		for key, id := range accepted {
			res, err := ev.AwaitJob(ctx, id)
			if err != nil || res.SolutionFP != want[key] || !res.Certified {
				t.Errorf("%s: accepted job %s (%s) after the restart: %+v, %v", what, key, id, res, err)
				continue
			}
			st, _ := ev.Job(id)
			if st.Replayed {
				replayed++
			}
			if awaited[id] && st.Replayed {
				t.Errorf("%s: job %s had completed before the crash and was run again", what, key)
			}
		}
		for _, st := range ev.Jobs() {
			if _, err := ev.AwaitJob(ctx, st.ID); err != nil { // one whose Submit never returned
				t.Errorf("%s: unacknowledged job %s: %v", what, st.ID, err)
			}
			if st.Replayed && accepted[st.IdempotencyKey] != st.ID {
				replayed++
			}
		}
		if d := int(jobReplays.Value() - replays0); d != replayed {
			t.Errorf("%s: %d jobs replayed, %d ran again", what, replayed, d)
		}
		ev.Close()
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && (strings.HasSuffix(path, ".tmp") || strings.HasSuffix(path, ".qck")) {
				t.Errorf("%s: %s is left once every job has finished", what, path)
			}
			return nil
		})
		return whole
	}

	count := &crasher{}
	if !run(count) {
		t.Fatal("the lifecycle does not finish with the seam idle")
	}
	t.Logf("the lifecycle takes %d durable steps: %v", count.steps, count.kinds)
	if count.steps <= 100 {
		t.Errorf("%d steps: the lifecycle is too short to exercise the recycling window", count.steps)
	}
	writes := 0
	for n := 1; ; n++ {
		c := &crasher{at: n}
		if run(c) {
			t.Logf("crashed at steps 1..%d, %d of them writes run a second time as short writes", n-1, writes)
			break
		}
		if c.fired == "write" {
			writes++
			run(&crasher{at: n, short: true})
		}
		if n > 2*count.steps {
			t.Fatalf("step %d and the lifecycle (%d steps) still does not finish", n, count.steps)
		}
	}
}

// TestCompletionAcknowledgedAfterJournal: a waiter hears that a job is
// done only once the terminal record is in the journal — the ordering
// "none completes twice" rests on. The seam holds the terminal record's
// write (the third on jobs.wal: accept, running, completed) until the test
// has seen AwaitJob still waiting.
func TestCompletionAcknowledgedAfterJournal(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	t.Cleanup(func() { durable.Hook = nil })
	var mu sync.Mutex
	walWrites := 0
	held, release := make(chan struct{}), make(chan struct{})
	durable.Hook = func(step, path string, n int) (int, error) {
		if step == "write" && filepath.Base(path) == journalFile {
			mu.Lock()
			walWrites++
			third := walWrites == 3
			mu.Unlock()
			if third {
				close(held)
				<-release
			}
		}
		return n, nil
	}
	e := newTestEngine(t, Config{JournalDir: t.TempDir()})
	st, err := e.Submit(&SolveRequest{Scenario: "tiny-ack", PEs: 2, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err = e.AwaitJob(ctx, st.ID)
	cancel()
	close(release)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AwaitJob returned %v while the terminal record was still being written", err)
	}
	if res, err := e.AwaitJob(context.Background(), st.ID); err != nil || !res.Converged {
		t.Fatalf("after the record landed: %+v, %v", res, err)
	}
}
