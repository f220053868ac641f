package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	iq "repro/internal/quake"
	"repro/internal/testutil"
)

// tinyResolver serves any "tiny*" name as a coarse 207-node San
// Fernando mesh — big enough to partition across a few PEs, small
// enough that a full e2e battery runs in seconds. Distinct names get
// distinct cache entries (and distinct quake mesh-cache slots), so each
// test can force its own cold build.
func tinyResolver(name string) (iq.Scenario, error) {
	if !strings.HasPrefix(name, "tiny") {
		return iq.Scenario{}, fmt.Errorf("serve_test: unknown scenario %q", name)
	}
	return iq.Scenario{Name: name, Period: 30, PPW: 1, MaxDepth: 3}, nil
}

// newTestEngine builds an engine over tiny scenarios with metrics
// enabled and per-iteration checkpoints (so cancellation and progress
// are exercised at the finest granularity).
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
	if cfg.Scenarios == nil {
		cfg.Scenarios = tinyResolver
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// startServer serves the engine's mux on a real loopback listener.
func startServer(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewMux(e))
	t.Cleanup(srv.Close)
	t.Cleanup(srv.Client().CloseIdleConnections)
	return srv
}

// postSolve posts one body to /v1/solve and returns the raw response.
func postSolve(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	return resp
}

// mustSolve posts one body and requires a 200 with a decodable result.
func mustSolve(t *testing.T, srv *httptest.Server, body string) *SolveResult {
	t.Helper()
	resp := postSolve(t, srv, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/solve status %d: %s", resp.StatusCode, msg)
	}
	res := &SolveResult{}
	if err := json.NewDecoder(resp.Body).Decode(res); err != nil {
		t.Fatalf("decoding solve result: %v", err)
	}
	return res
}

// errorReply is the JSON error envelope httpError writes.
type errorReply struct {
	Error  string       `json:"error"`
	Result *SolveResult `json:"result"`
}

// TestColdThenCachedServedFromCache is the acceptance pin: the second
// identical solve must come from the artifact cache with zero mesh and
// partition rebuilds, asserted from the serve.cache.{hits,misses}
// counters and the pipeline's own mesh.generate.calls/partition.calls.
func TestColdThenCachedServedFromCache(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	meshGen := obs.GetCounter("mesh.generate.calls")
	partCalls := obs.GetCounter("partition.calls")
	hits0, miss0 := cacheHits.Value(), cacheMisses.Value()
	spawns0 := poolSpawns.Value()

	const body = `{"scenario":"tiny-cold","pes":2}`
	cold := mustSolve(t, srv, body)
	if cold.CacheHit {
		t.Fatal("first solve reported cache_hit=true; expected a cold build")
	}
	if !cold.Converged || !cold.Certified {
		t.Fatalf("cold solve: converged=%v certified=%v", cold.Converged, cold.Certified)
	}

	mesh1, part1 := meshGen.Value(), partCalls.Value()
	warm := mustSolve(t, srv, body)
	if !warm.CacheHit {
		t.Fatal("second identical solve reported cache_hit=false")
	}
	if m, p := meshGen.Value(), partCalls.Value(); m != mesh1 || p != part1 {
		t.Fatalf("cached solve rebuilt artifacts: mesh.generate.calls %d→%d, partition.calls %d→%d",
			mesh1, m, part1, p)
	}
	if d := cacheMisses.Value() - miss0; d != 1 {
		t.Fatalf("serve.cache.misses advanced by %d, want exactly 1", d)
	}
	if d := cacheHits.Value() - hits0; d != 1 {
		t.Fatalf("serve.cache.hits advanced by %d, want exactly 1", d)
	}
	if d := poolSpawns.Value() - spawns0; d != 1 {
		t.Fatalf("pool spawned %d workers, want exactly the one pre-warmed at build", d)
	}
	if warm.Fingerprints != cold.Fingerprints {
		t.Fatalf("cached solve served different artifacts:\n  cold %+v\n  warm %+v", cold.Fingerprints, warm.Fingerprints)
	}
	if warm.SolutionFP != cold.SolutionFP {
		t.Fatalf("cached solve diverged: solution fp %x vs %x", warm.SolutionFP, cold.SolutionFP)
	}
	if warm.CertResidual > 1e-6 {
		t.Fatalf("certified residual %g too large", warm.CertResidual)
	}
}

// TestConcurrentSolvesShareOneBuild races many identical requests at a
// fresh key: exactly one build may happen (sync.Once), every loser of
// the race counts as a hit, and all answers must agree bit for bit.
// Run under -race this is also the engine's data-race battery.
func TestConcurrentSolvesShareOneBuild(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	srv := startServer(t, e)
	miss0 := cacheMisses.Value()

	const workers = 8
	results := make(chan *SolveResult, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- mustSolve(t, srv, `{"scenario":"tiny-conc","pes":2,"tol":1e-9}`)
		}()
	}
	wg.Wait()
	close(results)

	var first *SolveResult
	for res := range results {
		if !res.Converged || !res.Certified {
			t.Fatalf("concurrent solve: converged=%v certified=%v", res.Converged, res.Certified)
		}
		if first == nil {
			first = res
			continue
		}
		if res.SolutionFP != first.SolutionFP || res.Fingerprints != first.Fingerprints {
			t.Fatalf("concurrent solves disagree: %x vs %x", res.SolutionFP, first.SolutionFP)
		}
	}
	if d := cacheMisses.Value() - miss0; d != 1 {
		t.Fatalf("%d concurrent identical solves caused %d builds, want 1", workers, d)
	}
}

// TestBackpressure429 fills the admission queue deterministically with
// the holdSolve hook — one solve running, one queued — and requires the
// next request to be refused immediately with 429 and Retry-After.
func TestBackpressure429(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	srv := startServer(t, e)
	const body = `{"scenario":"tiny-busy","pes":2}`
	mustSolve(t, srv, body) // cold-build outside the held window

	held := make(chan struct{}, 2)
	gate := make(chan struct{})
	e.holdSolve = func() {
		held <- struct{}{}
		<-gate
	}
	rejected0 := admitRejected.Value()

	done := make(chan *SolveResult, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- mustSolve(t, srv, body) }()
	}
	<-held // one solve is running (and holding); the other is queued
	depth := obs.GetGauge("serve.queue.depth")
	for deadline := time.Now().Add(5 * time.Second); depth.Value() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postSolve(t, srv, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("over-admission status %d, want 429: %s", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if d := admitRejected.Value() - rejected0; d != 1 {
		t.Fatalf("serve.admit.rejected advanced by %d, want 1", d)
	}

	close(gate) // release the held and queued solves
	for i := 0; i < 2; i++ {
		if res := <-done; !res.Converged {
			t.Fatal("held solve did not converge after release")
		}
	}
}

// TestDeadlineCancelKeepsWorkerHealthy stretches each checkpoint with
// CheckpointDelay so a 25ms wall budget reliably fires mid-solve, then
// proves the pooled worker survived: the next solve on the same tuple
// reuses it and converges.
func TestDeadlineCancelKeepsWorkerHealthy(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{MaxConcurrent: 2, CheckpointDelay: 2 * time.Millisecond})
	srv := startServer(t, e)
	const body = `{"scenario":"tiny-dead","pes":2,"tol":1e-12}`
	mustSolve(t, srv, body)

	canceled0 := solvesCanceled.Value()
	resp := postSolve(t, srv, `{"scenario":"tiny-dead","pes":2,"tol":1e-12,"deadline_ms":25}`)
	var reply errorReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decoding cancel reply: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("deadline-canceled solve status %d, want 408 (%s)", resp.StatusCode, reply.Error)
	}
	if reply.Result == nil || !reply.Result.Canceled {
		t.Fatalf("cancel reply carries no canceled partial result: %+v", reply.Result)
	}
	if reply.Result.Iterations <= 0 {
		t.Fatalf("canceled solve reports %d iterations; want partial progress", reply.Result.Iterations)
	}
	if reply.Result.Converged {
		t.Fatal("canceled solve claims convergence")
	}
	if d := solvesCanceled.Value() - canceled0; d != 1 {
		t.Fatalf("serve.solves.canceled advanced by %d, want 1", d)
	}

	reuse0 := poolReuses.Value()
	warm := mustSolve(t, srv, body)
	if !warm.Converged || !warm.Certified {
		t.Fatalf("solve after cancel: converged=%v certified=%v — worker poisoned?", warm.Converged, warm.Certified)
	}
	if d := poolReuses.Value() - reuse0; d != 1 {
		t.Fatalf("solve after cancel reused %d pooled workers, want 1 (the canceled one)", d)
	}
}

// TestKillFaultHealsAndCertifies routes a kill fault plan through the
// recovery supervisor: the solve shrinks to the survivors, converges,
// and certifies its answer with an independent operator application —
// and the pool replenishes afterwards so the tuple keeps serving.
func TestKillFaultHealsAndCertifies(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	const plain = `{"scenario":"tiny-heal","pes":4,"tol":1e-10}`
	mustSolve(t, srv, plain)

	supervised0 := solvesSupervise.Value()
	res := mustSolve(t, srv, `{"scenario":"tiny-heal","pes":4,"tol":1e-10,"faults":"kill:pe=1,iter=5"}`)
	if res.Shrinks != 1 || len(res.DeadPEs) != 1 || res.DeadPEs[0] != 1 {
		t.Fatalf("kill was not absorbed: shrinks=%d dead=%v", res.Shrinks, res.DeadPEs)
	}
	if res.Width != 3 {
		t.Fatalf("final width %d, want 3 survivors of 4", res.Width)
	}
	if !res.Converged {
		t.Fatal("faulted solve did not converge")
	}
	if !res.Certified || res.CertResidual > 1e-6 {
		t.Fatalf("faulted answer not certified: certified=%v residual=%g", res.Certified, res.CertResidual)
	}
	if d := solvesSupervise.Value() - supervised0; d != 1 {
		t.Fatalf("serve.solves.supervised advanced by %d, want 1", d)
	}

	// Kill + revive heals back to full width.
	res = mustSolve(t, srv, `{"scenario":"tiny-heal","pes":4,"tol":1e-10,"faults":"kill:pe=1,iter=5;revive:pe=1,iter=15"}`)
	if res.Shrinks != 1 || res.Grows != 1 {
		t.Fatalf("kill+revive: shrinks=%d grows=%d, want 1 and 1", res.Shrinks, res.Grows)
	}
	if res.Width != 4 {
		t.Fatalf("post-revive width %d, want the full 4", res.Width)
	}
	if !res.Converged || !res.Certified {
		t.Fatalf("revived solve: converged=%v certified=%v", res.Converged, res.Certified)
	}

	// The session (tuple) survived its faulted members: a plain solve
	// still converges on a fresh pooled worker.
	after := mustSolve(t, srv, plain)
	if !after.Converged || !after.CacheHit {
		t.Fatalf("tuple did not keep serving after faults: converged=%v hit=%v", after.Converged, after.CacheHit)
	}
}

// TestSessionLifecycle drives the session surface end to end: open,
// status, solve, list, close, and the 404/400 edges.
func TestSessionLifecycle(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	client := srv.Client()

	resp, err := client.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"tiny-sess","pes":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding session status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open status %d, want 201", resp.StatusCode)
	}
	if st.ID == "" || st.Key.Scenario != "tiny-sess" || st.CacheHit {
		t.Fatalf("opened session: %+v", st)
	}
	if st.WarmWorkers < 1 {
		t.Fatalf("session opened with %d warm workers, want the pre-spawned one", st.WarmWorkers)
	}

	// Solve on the session: per-solve fields only.
	resp, err = client.Post(srv.URL+"/v1/sessions/"+st.ID+"/solve", "application/json",
		strings.NewReader(`{"tol":1e-9}`))
	if err != nil {
		t.Fatal(err)
	}
	var res SolveResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding session solve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !res.Converged || !res.CacheHit {
		t.Fatalf("session solve: status %d converged=%v hit=%v", resp.StatusCode, res.Converged, res.CacheHit)
	}

	// Naming the tuple in a session solve is an error.
	resp, err = client.Post(srv.URL+"/v1/sessions/"+st.ID+"/solve", "application/json",
		strings.NewReader(`{"scenario":"tiny-sess","pes":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tuple-in-session-solve status %d, want 400", resp.StatusCode)
	}

	// Status reflects the finished solve; the list contains the session.
	resp, err = client.Get(srv.URL + "/v1/sessions/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st2 Status
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if st2.Solves != 1 || st2.LastIter == 0 {
		t.Fatalf("post-solve status: %+v", st2)
	}
	resp, err = client.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []Status `json:"sessions"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	found := false
	for _, s := range list.Sessions {
		found = found || s.ID == st.ID
	}
	if !found {
		t.Fatalf("session %s missing from list %+v", st.ID, list.Sessions)
	}

	// Close; the id is gone but the artifacts stay warm.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+st.ID, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close status %d, want 204", resp.StatusCode)
	}
	resp, err = client.Get(srv.URL + "/v1/sessions/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("closed session status %d, want 404", resp.StatusCode)
	}
	hit := mustSolve(t, srv, `{"scenario":"tiny-sess","pes":2}`)
	if !hit.CacheHit {
		t.Fatal("artifacts went cold after session close")
	}
}

// TestStreamingSolveEvents reads the chunked ndjson stream of both solve
// endpoints: an accepted header, per-checkpoint progress with decreasing
// residuals, and a final result event, every one carrying the job id and
// a strictly increasing sequence number, every progress line counted by
// serve.stream.events. A session solve is a job like any other, so its
// dropped stream resumes from the job's event feed.
func TestStreamingSolveEvents(t *testing.T) {
	for _, tc := range []struct {
		name, scenario string
		session        bool
	}{
		{"solve", "tiny-stream", false},
		{"session", "tiny-stream-s", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			e := newTestEngine(t, Config{})
			srv := startServer(t, e)
			url := srv.URL + "/v1/solve"
			body := fmt.Sprintf(`{"scenario":%q,"pes":2,"tol":1e-9,"stream":true}`, tc.scenario)
			var sess *Session
			if tc.session {
				var err error
				if sess, err = e.Open(SessionSpec{Scenario: tc.scenario, PEs: 2}); err != nil {
					t.Fatal(err)
				}
				url = srv.URL + "/v1/sessions/" + sess.ID() + "/solve"
				body = `{"tol":1e-9,"stream":true}`
			}

			counted0 := streamEvents.Value()
			resp, err := srv.Client().Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
				t.Fatalf("stream status %d, content type %q", resp.StatusCode, ct)
			}
			var events []event
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatalf("bad stream line %q: %v", sc.Text(), err)
				}
				events = append(events, ev)
				if tc.session && len(events) == 2 {
					break // the connection drops mid-feed
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("reading stream: %v", err)
			}
			if tc.session {
				if len(events) != 2 {
					t.Fatalf("session stream ended after %d events, before the drop", len(events))
				}
				resp.Body.Close()
				events = append(events, readEvents(t, srv.Client(),
					fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", srv.URL, events[0].JobID, events[1].Seq+1))...)
			}

			if len(events) < 4 {
				t.Fatalf("stream carried %d events, want accepted + progress + result", len(events))
			}
			if events[0].Event != "accepted" || events[0].Fingerprints == nil || events[0].JobID == "" {
				t.Fatalf("first event: %+v", events[0])
			}
			last := events[len(events)-1]
			if last.Event != "result" || last.Result == nil || !last.Result.Converged {
				t.Fatalf("final event: %+v", last)
			}
			for i, ev := range events {
				if ev.JobID != events[0].JobID || ev.Seq != int64(i)+1 {
					t.Fatalf("event %d is seq %d of job %q, want seq %d of job %q — a gap or a repeat",
						i, ev.Seq, ev.JobID, i+1, events[0].JobID)
				}
			}
			progress := events[1 : len(events)-1]
			for _, ev := range progress {
				if ev.Event != "progress" || ev.Iter < 0 {
					t.Fatalf("bad progress event: %+v", ev)
				}
			}
			if first, lastP := progress[0].Residual, progress[len(progress)-1].Residual; lastP >= first {
				t.Fatalf("residual did not decrease over the stream: %g → %g", first, lastP)
			}
			// Every progress line a client read was counted; lines written
			// into the dropped connection after the client stopped reading
			// count too, so only the unbroken stream is exact.
			counted := streamEvents.Value() - counted0
			if int(counted) < len(progress) || (!tc.session && int(counted) != len(progress)) {
				t.Fatalf("serve.stream.events advanced by %d for %d progress lines read", counted, len(progress))
			}

			if tc.session {
				// The session's counters settle once the job has finished.
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					st := sess.Status()
					if st.Solves == 1 && st.Active == 0 && st.LastIter == last.Result.Iterations {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("session never settled after its streamed solve: %+v", st)
					}
				}
			}
		})
	}
}

// TestBadRequestsRejected is the malformed-input table: every row must
// be refused with 400 before any solver work starts.
func TestBadRequestsRejected(t *testing.T) {
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{`},
		{"unknown field", `{"scenario":"tiny-bad","pes":2,"bogus":1}`},
		{"missing scenario", `{"pes":2}`},
		{"unknown scenario", `{"scenario":"nope","pes":2}`},
		{"zero pes", `{"scenario":"tiny-bad","pes":0}`},
		{"excess pes", `{"scenario":"tiny-bad","pes":4096}`},
		{"unknown method", `{"scenario":"tiny-bad","pes":2,"method":"sorcery"}`},
		{"nodesize over pes", `{"scenario":"tiny-bad","pes":2,"nodesize":4}`},
		{"tol out of range", `{"scenario":"tiny-bad","pes":2,"tol":2}`},
		{"tol subnormal", `{"scenario":"tiny-bad","pes":2,"tol":1e-300}`},
		{"negative deadline", `{"scenario":"tiny-bad","pes":2,"deadline_ms":-1}`},
		{"negative iters", `{"scenario":"tiny-bad","pes":2,"max_iters":-5}`},
		{"bad fault plan", `{"scenario":"tiny-bad","pes":2,"faults":"explode:everything"}`},
		{"fault pe out of range", `{"scenario":"tiny-bad","pes":2,"faults":"kill:pe=7,iter=5"}`},
		{"trailing data", `{"scenario":"tiny-bad","pes":2}{"again":true}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSolve(t, srv, tc.body)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve status %d, want 405", resp.StatusCode)
	}
}

// TestClosedEngineRefusesSolves: after Close, the HTTP surface answers
// 409 rather than hanging or panicking.
func TestClosedEngineRefusesSolves(t *testing.T) {
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	mustSolve(t, srv, `{"scenario":"tiny-closed","pes":2}`)
	e.Close()
	resp := postSolve(t, srv, `{"scenario":"tiny-closed","pes":2}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("solve on closed engine: status %d, want 409", resp.StatusCode)
	}
}

// TestHealthAndIndex covers the probe and the index page.
func TestHealthAndIndex(t *testing.T) {
	e := newTestEngine(t, Config{})
	srv := startServer(t, e)
	for _, path := range []string{"/healthz", "/", "/metrics", "/metrics.json", "/flight"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", path, resp.StatusCode)
		}
	}
}
