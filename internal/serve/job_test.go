package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	rec "repro/internal/recover"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// TestJobSurvivesWorkerKill is the live-migration pin: a kill fault
// murders the worker and the job must finish on a different pool worker
// — certified, at full width, bit-identical to an uninterrupted
// reference solve — wherever the kill lands relative to the checkpoints,
// including before the first one (kernel 1 is the initial residual).
// serve.job.resumed_iters_saved says how much was not re-run.
func TestJobSurvivesWorkerKill(t *testing.T) {
	shrinks := obs.GetCounter("recover.shrinks")
	for _, every := range []int{1, 10} {
		// Kernel k+1 is CG iteration k, so a checkpoint every n
		// iterations lands after kernel n+1.
		for _, row := range []struct{ killAt, saved int }{
			{1, 0},
			{5, map[int]int{1: 3, 10: 0}[every]},
			{every + 2, every}, // the first kernel past a checkpoint
		} {
			t.Run(fmt.Sprintf("every%d/kill%d", every, row.killAt), func(t *testing.T) {
				testutil.VerifyNoLeaks(t)
				e := newTestEngine(t, Config{CheckpointEvery: every})
				srv := startServer(t, e)

				// The uninterrupted reference (also the cold build).
				const plain = `{"scenario":"tiny-mig","pes":4,"tol":1e-10}`
				ref := mustSolve(t, srv, plain)
				if !ref.Converged || !ref.Certified {
					t.Fatalf("reference solve: converged=%v certified=%v", ref.Converged, ref.Certified)
				}

				migrations0, saved0 := jobMigrations.Value(), jobItersSaved.Value()
				supervised0, shrinks0 := solvesSupervise.Value(), shrinks.Value()
				res := mustSolve(t, srv, fmt.Sprintf(
					`{"scenario":"tiny-mig","pes":4,"tol":1e-10,"faults":"kill:pe=1,iter=%d","recovery":"migrate"}`, row.killAt))
				if !res.Converged {
					t.Fatal("migrated solve did not converge")
				}
				if !res.Certified || res.CertResidual > 1e-6 {
					t.Fatalf("migrated answer not certified: certified=%v residual=%g", res.Certified, res.CertResidual)
				}
				if res.Migrations != 1 {
					t.Fatalf("result reports %d migrations, want exactly 1", res.Migrations)
				}
				if res.SolutionFP != ref.SolutionFP || res.Iterations != ref.Iterations {
					t.Fatalf("migrated solve diverged from the uninterrupted reference: fp %x after %d iterations vs %x after %d",
						res.SolutionFP, res.Iterations, ref.SolutionFP, ref.Iterations)
				}
				if d := jobMigrations.Value() - migrations0; d != 1 {
					t.Fatalf("serve.job.migrations advanced by %d, want 1", d)
				}
				// The resume point: iterations before it were NOT re-run.
				if d := jobItersSaved.Value() - saved0; d != int64(row.saved) {
					t.Fatalf("serve.job.resumed_iters_saved advanced by %d, want %d", d, row.saved)
				}
				// Migration replaces the worker; it never shrinks the
				// partition, and it is not a plan run under the
				// shrink/regrow policy.
				if res.Width != 4 || res.Shrinks != 0 || shrinks.Value() != shrinks0 {
					t.Fatalf("migrated solve finished at width %d after %d shrinks (recover.shrinks +%d), want the full 4 and none",
						res.Width, res.Shrinks, shrinks.Value()-shrinks0)
				}
				if d := solvesSupervise.Value() - supervised0; d != 0 {
					t.Fatalf("serve.solves.supervised advanced by %d on a migrate plan, want 0", d)
				}

				// The job record agrees: two dispatches, one forced by the death.
				st, ok := e.Job(res.JobID)
				if !ok {
					t.Fatalf("job %q not tracked", res.JobID)
				}
				if st.State != JobCompleted || st.Attempts != 2 || st.Migrations != 1 {
					t.Fatalf("job status after migration: %+v", st)
				}

				// The tuple keeps serving on a healthy worker afterwards.
				after := mustSolve(t, srv, plain)
				if !after.Converged || !after.CacheHit {
					t.Fatalf("tuple dead after migration: converged=%v hit=%v", after.Converged, after.CacheHit)
				}
			})
		}
	}
}

// TestJobSurvivesProcessRestart is the tentpole's crash-recovery pin:
// an engine is closed mid-solve (the SIGTERM path) and a fresh engine
// on the same journal directory must replay the job, resume it from
// its durable checkpoint, and finish it — then garbage-collect the
// checkpoints it no longer needs.
func TestJobSurvivesProcessRestart(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()

	e1 := newTestEngine(t, Config{JournalDir: dir, CheckpointDelay: 2 * time.Millisecond})
	st, err := e1.Submit(&SolveRequest{Scenario: "tiny-rst", PEs: 2, Tol: 1e-12})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait until the solve is demonstrably mid-flight with durable
	// checkpoints behind it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := e1.Job(st.ID)
		if !ok {
			t.Fatalf("job %s vanished", st.ID)
		}
		if cur.State.terminal() {
			t.Fatalf("job finished before the forced restart (state %s) — pacing too weak", cur.State)
		}
		if cur.CheckpointIter >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached checkpoint 3: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	requeued0 := jobRequeued.Value()
	e1.Close() // the running job parks at its next checkpoint
	if d := jobRequeued.Value() - requeued0; d != 1 {
		t.Fatalf("serve.job.requeued advanced by %d on shutdown, want 1", d)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt", st.ID)); err != nil {
		t.Fatalf("parked job left no durable checkpoints: %v", err)
	}

	// The restarted process: same journal, fresh everything else.
	replays0 := jobReplays.Value()
	saved0 := jobItersSaved.Value()
	gc0 := jobGCPruned.Value()
	e2 := newTestEngine(t, Config{JournalDir: dir})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := e2.AwaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("awaiting replayed job: %v", err)
	}
	if !res.Converged || !res.Certified {
		t.Fatalf("replayed job: converged=%v certified=%v", res.Converged, res.Certified)
	}
	if res.JobID != st.ID {
		t.Fatalf("replayed result names job %q, want %q", res.JobID, st.ID)
	}
	fin, ok := e2.Job(st.ID)
	if !ok || fin.State != JobCompleted || !fin.Replayed {
		t.Fatalf("replayed job status: ok=%v %+v", ok, fin)
	}
	if d := jobReplays.Value() - replays0; d != 1 {
		t.Fatalf("serve.job.replays advanced by %d, want 1", d)
	}
	// It resumed at iteration >= 3 rather than recomputing from zero.
	if d := jobItersSaved.Value() - saved0; d < 3 {
		t.Fatalf("serve.job.resumed_iters_saved advanced by %d, want >= 3", d)
	}
	// A deterministic re-run of the same spec must agree bit for bit.
	ref, err := e2.Solve(context.Background(), &SolveRequest{Scenario: "tiny-rst", PEs: 2, Tol: 1e-12})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if res.SolutionFP != ref.SolutionFP {
		t.Fatalf("replayed solve diverged from reference: fp %x vs %x", res.SolutionFP, ref.SolutionFP)
	}
	// Terminal jobs keep no checkpoints (GC satellite).
	if _, err := os.Stat(filepath.Join(dir, "ckpt", st.ID)); !os.IsNotExist(err) {
		t.Fatalf("completed job's checkpoint dir still present (stat err %v)", err)
	}
	if d := jobGCPruned.Value() - gc0; d < 1 {
		t.Fatalf("serve.job.gc.pruned advanced by %d, want >= 1", d)
	}
}

// TestIdempotencyKeyDedups: a retried submission with the same key
// binds to the original job instead of running a second solve.
func TestIdempotencyKeyDedups(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	const body = `{"scenario":"tiny-idem","pes":2,"tol":1e-9,"idempotency_key":"retry-me"}`

	accepted0 := jobAccepted.Value()
	dedup0 := jobDedup.Value()
	first := mustSolve(t, srv, body)
	again := mustSolve(t, srv, body)
	if first.JobID == "" || first.JobID != again.JobID {
		t.Fatalf("idempotent retry got a different job: %q vs %q", first.JobID, again.JobID)
	}
	if first.SolutionFP != again.SolutionFP {
		t.Fatalf("idempotent retry diverged: %x vs %x", first.SolutionFP, again.SolutionFP)
	}
	if d := jobAccepted.Value() - accepted0; d != 1 {
		t.Fatalf("serve.job.accepted advanced by %d for a retried submission, want 1", d)
	}
	if d := jobDedup.Value() - dedup0; d != 1 {
		t.Fatalf("serve.job.dedup advanced by %d, want 1", d)
	}
	// A different key is a different job.
	other := mustSolve(t, srv, `{"scenario":"tiny-idem","pes":2,"tol":1e-9,"idempotency_key":"someone-else"}`)
	if other.JobID == first.JobID {
		t.Fatal("distinct idempotency keys shared a job")
	}
}

// TestDetachAndJobsAPI: a detached submission answers 202 immediately
// with a pollable job, the jobs list tracks it, and its ndjson event
// feed is resumable from an arbitrary sequence number.
func TestDetachAndJobsAPI(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	client := srv.Client()

	resp := postSolve(t, srv, `{"scenario":"tiny-jobs","pes":2,"tol":1e-9,"detach":true}`)
	var st JobStatus
	err := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("detach: status %d, job %+v, err %v", resp.StatusCode, st, err)
	}

	// Poll the job to completion through the API.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r2, err := client.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r2.Body).Decode(&st)
		r2.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("detached job never finished: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != JobCompleted || st.Result == nil || !st.Result.Converged {
		t.Fatalf("detached job: %+v", st)
	}

	// The list endpoint knows it.
	r3, err := client.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err = json.NewDecoder(r3.Body).Decode(&list)
	r3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == st.ID
	}
	if !found {
		t.Fatalf("job %s missing from /v1/jobs", st.ID)
	}

	// Full event feed: accepted first, result last, seq contiguous.
	evs := readEvents(t, client, srv.URL+"/v1/jobs/"+st.ID+"/events")
	if len(evs) < 3 {
		t.Fatalf("want >= 3 events (accepted, progress, result), got %+v", evs)
	}
	if evs[0].Event != "accepted" || evs[0].Seq != 1 {
		t.Fatalf("first event: %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Event != "result" || last.Result == nil || !last.Result.Converged {
		t.Fatalf("last event: %+v", last)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.JobID != st.ID {
			t.Fatalf("event %d names job %q, want %q", i, ev.JobID, st.ID)
		}
	}

	// Resume mid-stream: from the terminal event's seq, exactly one
	// event comes back.
	tail := readEvents(t, client, fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", srv.URL, st.ID, last.Seq))
	if len(tail) != 1 || tail[0].Event != "result" || tail[0].Seq != last.Seq {
		t.Fatalf("resumed stream: %+v", tail)
	}
}

// readEvents consumes one ndjson stream to EOF.
func readEvents(t *testing.T, client *http.Client, url string) []event {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, msg)
	}
	var evs []event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return evs
}

// TestStreamIdempotentResume: retrying a streamed solve with the same
// idempotency key and a from_event offset continues the original job's
// feed without re-running it.
func TestStreamIdempotentResume(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	const body = `{"scenario":"tiny-resume","pes":2,"tol":1e-9,"stream":true,"idempotency_key":"stream-1"}`

	full := streamSolveEvents(t, srv, body)
	if len(full) < 3 || full[0].Event != "accepted" || full[len(full)-1].Event != "result" {
		t.Fatalf("first stream: %+v", full)
	}
	jobID := full[0].JobID

	accepted0 := jobAccepted.Value()
	resumeAt := full[len(full)-1].Seq
	retry := streamSolveEvents(t, srv, fmt.Sprintf(
		`{"scenario":"tiny-resume","pes":2,"tol":1e-9,"stream":true,"idempotency_key":"stream-1","from_event":%d}`, resumeAt))
	if d := jobAccepted.Value() - accepted0; d != 0 {
		t.Fatalf("streamed retry accepted %d new jobs, want 0", d)
	}
	if len(retry) != 1 || retry[0].Event != "result" || retry[0].JobID != jobID {
		t.Fatalf("resumed retry stream: %+v", retry)
	}
}

// streamSolveEvents posts one streaming solve and consumes the feed.
func streamSolveEvents(t *testing.T, srv *httptest.Server, body string) []event {
	t.Helper()
	resp := postSolve(t, srv, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, msg)
	}
	var evs []event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestRetryAfterJitter pins the anti-stampede satellite: the 429
// Retry-After value is drawn from [1,3], not a constant.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfterSeconds()
		if v < 1 || v > 3 {
			t.Fatalf("retryAfterSeconds() = %d outside [1,3]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws produced a single value %v — no jitter", seen)
	}
}

// TestOrphanCheckpointGC: checkpoint directories that belong to no
// journaled job are swept at engine startup.
func TestOrphanCheckpointGC(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	orphan := filepath.Join(dir, "ckpt", "j-dead-beef")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "ckpt-000000001.qck"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	gc0 := jobGCPruned.Value()
	newTestEngine(t, Config{JournalDir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan checkpoint dir survived startup GC (stat err %v)", err)
	}
	if d := jobGCPruned.Value() - gc0; d < 1 {
		t.Fatalf("serve.job.gc.pruned advanced by %d, want >= 1", d)
	}
}

// TestJobFailsWhenAttemptsExhausted: with a migration budget of zero
// (MaxAttempts=1) a killed worker is a terminal failure, recorded as
// such on the job.
func TestJobFailsWhenAttemptsExhausted(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{MaxAttempts: 1})
	failed0 := jobFailed.Value()
	migrations0 := jobMigrations.Value()
	_, err := e.Solve(context.Background(),
		&SolveRequest{Scenario: "tiny-exh", PEs: 4, Faults: "kill:pe=1,iter=5", Recovery: RecoveryMigrate})
	if err == nil {
		t.Fatal("kill with no migration budget did not fail")
	}
	if d := jobFailed.Value() - failed0; d != 1 {
		t.Fatalf("serve.job.failed advanced by %d, want 1", d)
	}
	if d := jobMigrations.Value() - migrations0; d != 0 {
		t.Fatalf("serve.job.migrations advanced by %d with MaxAttempts=1, want 0", d)
	}
	// The failed attempt is on the record.
	var st JobStatus
	for _, s := range e.Jobs() {
		if s.State == JobFailed {
			st = s
		}
	}
	if st.ID == "" || st.Attempts != 1 || st.Error == "" {
		t.Fatalf("failed job status: %+v", st)
	}
}

// TestTerminalJobEviction: RetainJobs bounds the in-memory record;
// the oldest terminal jobs fall off while live jobs are untouchable.
func TestTerminalJobEviction(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{RetainJobs: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		res, err := e.Solve(context.Background(),
			&SolveRequest{Scenario: "tiny-evict", PEs: 2, Tol: 1e-9, RHSSeed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.JobID)
	}
	// Eviction runs at admission, so the cap is RetainJobs terminal
	// records plus the job being admitted.
	if got := len(e.Jobs()); got != 3 {
		t.Fatalf("%d jobs retained, want 3", got)
	}
	for _, id := range ids[:2] {
		if _, ok := e.Job(id); ok {
			t.Fatalf("old terminal job %s still tracked past the retention bound", id)
		}
	}
	if _, ok := e.Job(ids[4]); !ok {
		t.Fatal("newest job evicted")
	}
}

// TestJobsAPIErrors: unknown IDs are 404s and a malformed event
// cursor is a 400.
func TestJobsAPIErrors(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	client := srv.Client()
	for _, url := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := client.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
	res := mustSolve(t, srv, `{"scenario":"tiny-apierr","pes":2,"tol":1e-9}`)
	for _, q := range []string{"?from=-1", "?from=banana"} {
		resp, err := client.Get(srv.URL + "/v1/jobs/" + res.JobID + "/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("events%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestMigrateRejectsRevive: the migrate strategy cannot honor revive
// events (only the elastic supervisor regrows), so the combination is
// a 400, not a surprise at solve time.
func TestMigrateRejectsRevive(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	resp := postSolve(t, srv,
		`{"scenario":"tiny-rej","pes":4,"faults":"kill:pe=1,iter=5;revive:pe=1,iter=15","recovery":"migrate"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("migrate+revive status %d, want 400", resp.StatusCode)
	}
}

// TestEveryDoorValidates: a spec that HTTP answers 400 is refused with
// ErrBadRequest by every in-process entry point too — before a job
// exists, before anything is journaled — because they all enter through
// the one intake.
func TestEveryDoorValidates(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{JournalDir: t.TempDir()})
	sess, err := e.Open(SessionSpec{Scenario: "tiny-doors", PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", maxFaultPlanLen+1)
	request := func(s SolveSpec) *SolveRequest {
		return &SolveRequest{Scenario: "tiny-doors", PEs: 4, Shift: s.Shift, Tol: s.Tol,
			Faults: s.Faults, Recovery: s.Recovery, IdempotencyKey: s.IdempotencyKey}
	}
	doors := map[string]func(SolveSpec) error{
		"Engine.Solve": func(s SolveSpec) error {
			_, err := e.Solve(context.Background(), request(s))
			return err
		},
		"Engine.Submit": func(s SolveSpec) error {
			_, err := e.Submit(request(s))
			return err
		},
		"Session.Solve": func(s SolveSpec) error {
			_, err := sess.Solve(context.Background(), s)
			return err
		},
	}
	for name, spec := range map[string]SolveSpec{
		"unknown recovery":    {Recovery: "bogus"},
		"negative tol":        {Tol: -1},
		"tol of one":          {Tol: 1},
		"non-finite shift":    {Shift: math.Inf(1)},
		"over-long plan":      {Faults: long},
		"over-long idem key":  {IdempotencyKey: long[:maxIdempotencyKeyLen+1]},
		"kill past the width": {Faults: "kill:pe=9,iter=5"},
		"migrate with revive": {Faults: "kill:pe=1,iter=5;revive:pe=1,iter=15", Recovery: RecoveryMigrate},
	} {
		for door, solve := range doors {
			jobs0, accepted0, records0 := len(e.Jobs()), jobAccepted.Value(), jobJournalRecords.Value()
			if err := solve(spec); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s, %s: %v, want ErrBadRequest", door, name, err)
			}
			if n := len(e.Jobs()); n != jobs0 || jobAccepted.Value() != accepted0 {
				t.Errorf("%s, %s: a refused spec created a job (%d tracked, was %d)", door, name, n, jobs0)
			}
			if d := jobJournalRecords.Value() - records0; d != 0 {
				t.Errorf("%s, %s: a refused spec journaled %d records", door, name, d)
			}
		}
	}
	if st := sess.Status(); st.Active != 0 || st.LastError == "" {
		t.Fatalf("session after refused solves: %+v", st)
	}
}

// TestParentFormatsReplay pins the on-disk contract across the move to
// one supervisor: a journal and a checkpoint directory laid out the way
// the previous release's migrate loop wrote them — an accept and a
// running-state record in the WAL, a snapshot carrying the *whole* plan
// string and the kernel count — replay and resume under this build, and
// finish bit-identical to an uninterrupted solve. Only the unchanged
// encoders write the fixture.
func TestParentFormatsReplay(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	req := &SolveRequest{Scenario: "tiny-fmt", PEs: 2, Tol: 1e-10, Faults: "kill:pe=1,iter=9", Recovery: RecoveryMigrate}
	plain := *req
	plain.Faults, plain.Recovery = "", ""

	// A volatile engine supplies the reference answer and a mid-solve
	// state: iteration 5, six kernels in.
	e0 := newTestEngine(t, Config{})
	ref, err := e0.Solve(context.Background(), &plain)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := e0.artifact(Key{Scenario: "tiny-fmt", P: 2, Method: "rcb", NodeSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.checkout()
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * a.mesh.NumNodes()
	var at5 *solver.State
	_, err = solver.CG(par.Operator{D: w, Shift: 20, MassNode: a.massNode}, rhsFor(0, n), make([]float64, n), solver.Config{
		MaxIter: 4 * n, Tol: 1e-10, CheckpointEvery: 5,
		OnCheckpoint: func(st *solver.State) { at5 = st },
		Interrupt:    func(iter int) bool { return iter == 5 },
	})
	a.release(w, true)
	if !errors.Is(err, solver.ErrInterrupted) || at5 == nil || at5.Iter != 5 {
		t.Fatalf("capturing the mid-solve state: %v, %+v", err, at5)
	}

	dir := t.TempDir()
	const id = "jfeedfacecafe"
	now := time.Now()
	var wal []byte
	for _, r := range []*jobRecord{
		{Op: "accept", ID: id, Time: now, Req: req},
		{Op: "state", ID: id, Time: now, State: JobRunning, Attempts: 1, CkptIter: 5},
	} {
		frame, err := encodeJournalRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		wal = append(wal, frame...)
	}
	if err := os.WriteFile(journalPath(dir), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := rec.NewStore(filepath.Join(dir, "ckpt", id))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(&rec.Checkpoint{
		MeshID: a.meshID, P: int32(a.part.P), ElemPE: a.part.ElemPE,
		Iter: int64(at5.Iter), Rho: at5.Rho, X: at5.X, R: at5.R, PDir: at5.P,
		FaultPlan: req.Faults, FaultIter: 6,
	}); err != nil {
		t.Fatal(err)
	}

	replays0, saved0, migrations0 := jobReplays.Value(), jobItersSaved.Value(), jobMigrations.Value()
	e := newTestEngine(t, Config{JournalDir: dir})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := e.AwaitJob(ctx, id)
	if err != nil {
		t.Fatalf("awaiting the replayed job: %v", err)
	}
	if res.SolutionFP != ref.SolutionFP || res.Iterations != ref.Iterations || !res.Certified {
		t.Fatalf("replayed solve: fp %x after %d iterations (certified %v), reference %x after %d",
			res.SolutionFP, res.Iterations, res.Certified, ref.SolutionFP, ref.Iterations)
	}
	// Resumed at 5 with six kernels behind it; the plan's kill at kernel 9
	// then struck iteration 7 and cost one migration back to the snapshot
	// entering it (the test engine checkpoints every iteration).
	if r, s, m := jobReplays.Value()-replays0, jobItersSaved.Value()-saved0, jobMigrations.Value()-migrations0; r != 1 || s != 5+7 || m != 1 || res.Migrations != 1 {
		t.Fatalf("replays +%d, iterations saved +%d, migrations +%d (result says %d); want 1, 12, 1 (1)", r, s, m, res.Migrations)
	}
	if st, _ := e.Job(id); st.State != JobCompleted || !st.Replayed || st.Attempts != 3 || st.Key.Scenario != "tiny-fmt" {
		t.Fatalf("replayed job status: %+v", st)
	}
}
