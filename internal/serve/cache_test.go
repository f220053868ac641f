package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"

	iq "repro/internal/quake"
	"repro/internal/testutil"
)

// cached returns how many slots the engine's two cache levels hold.
func cached(e *Engine) (scenarios, tuples int) {
	e.scenarios.mu.Lock()
	scenarios = len(e.scenarios.slots)
	e.scenarios.mu.Unlock()
	e.entries.mu.Lock()
	tuples = len(e.entries.slots)
	e.entries.mu.Unlock()
	return scenarios, tuples
}

// TestFailedBuildsAreNotCached: a client naming scenarios (or methods)
// that do not exist must leave nothing behind in either cache level.
func TestFailedBuildsAreNotCached(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	for i := 0; i < 1000; i++ {
		_, err := e.Solve(context.Background(), &SolveRequest{Scenario: fmt.Sprintf("nosuch-%d", i), PEs: 2})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("unknown scenario %d: %v, want ErrBadRequest", i, err)
		}
	}
	// An unknown method is refused by the intake before any build.
	if _, err := e.Solve(context.Background(), &SolveRequest{Scenario: "tiny-failed", PEs: 2, Method: "nosuch"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown method: %v, want ErrBadRequest", err)
	}
	if s, k := cached(e); s != 0 || k != 0 {
		t.Fatalf("after 1001 refused requests the cache holds %d scenarios and %d tuples, want none", s, k)
	}
	// A tuple build that fails after its scenario was built — the same
	// method, asked of the cache directly — keeps the scenario's products
	// and drops the tuple.
	if _, _, err := e.artifact(Key{Scenario: "tiny-failed", P: 2, Method: "nosuch", NodeSize: 1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("failed tuple build: %v, want ErrBadRequest", err)
	}
	if s, k := cached(e); s != 1 || k != 0 {
		t.Fatalf("after a failed tuple build the cache holds %d scenarios and %d tuples, want 1 and 0", s, k)
	}
}

// TestFailedBuildIsRetried: a build that fails once is not served from
// the cache afterwards — the next request for the key builds again.
func TestFailedBuildIsRetried(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var calls atomic.Int32
	e := newTestEngine(t, Config{Scenarios: func(name string) (iq.Scenario, error) {
		if calls.Add(1) == 1 {
			return iq.Scenario{}, errors.New("transient resolver failure")
		}
		return tinyResolver(name)
	}})
	req := &SolveRequest{Scenario: "tiny-retry", PEs: 2}
	if _, err := e.Solve(context.Background(), req); err == nil {
		t.Fatal("first build succeeded through a failing resolver")
	}
	res, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("second request after a failed build: %v", err)
	}
	if res.CacheHit || !res.Converged {
		t.Fatalf("retried build: cache_hit=%v converged=%v, want a cold converged solve", res.CacheHit, res.Converged)
	}
	if s, k := cached(e); s != 1 || k != 1 {
		t.Fatalf("cache holds %d scenarios and %d tuples, want 1 and 1", s, k)
	}
}

// TestConcurrentFailedBuildAllFail: every one of the concurrent first
// requests for a key that cannot be built gets the error — none hangs on
// the dropped slot, none is handed a nil artifact.
func TestConcurrentFailedBuildAllFail(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	const clients = 16
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, errs[c] = e.artifact(Key{Scenario: "nosuch", P: 2, Method: "rcb", NodeSize: 1})
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("client %d: %v, want ErrBadRequest", c, err)
		}
	}
	if s, k := cached(e); s != 0 || k != 0 {
		t.Fatalf("cache holds %d scenarios and %d tuples, want none", s, k)
	}
}

// TestScenarioProductsBuiltOnce: N tuples of one scenario build the
// per-scenario products once and share them — one mesh_ns observation,
// N−1 mesh_shared, one mesh fingerprint, one lumped-mass array — while
// every per-tuple stage is observed N times.
func TestScenarioProductsBuiltOnce(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{})
	mesh0, shared0 := buildMeshNs.Count(), buildMeshShared.Value()
	part0, analyze0, sched0, dist0 := buildPartitionNs.Count(), buildAnalyzeNs.Count(), buildScheduleNs.Count(), buildNewDistNs.Count()

	keys := []Key{
		{Scenario: "tiny-shared", P: 1, Method: "rcb", NodeSize: 1},
		{Scenario: "tiny-shared", P: 2, Method: "rcb", NodeSize: 1},
		{Scenario: "tiny-shared", P: 3, Method: "inertial", NodeSize: 1},
		{Scenario: "tiny-shared", P: 4, Method: "rcb", NodeSize: 2},
	}
	var arts []*artifact
	for _, k := range keys {
		a, hit, err := e.artifact(k)
		if err != nil || hit {
			t.Fatalf("%s: err=%v hit=%v, want a cold build", k, err, hit)
		}
		arts = append(arts, a)
	}
	n := int64(len(keys))
	if got := buildMeshNs.Count() - mesh0; got != 1 {
		t.Errorf("serve.build.mesh_ns observed %d times for one scenario, want 1", got)
	}
	if got := buildMeshShared.Value() - shared0; got != n-1 {
		t.Errorf("serve.build.mesh_shared = %d, want %d", got, n-1)
	}
	for name, got := range map[string]int64{
		"partition": buildPartitionNs.Count() - part0,
		"analyze":   buildAnalyzeNs.Count() - analyze0,
		"schedule":  buildScheduleNs.Count() - sched0,
		"newdist":   buildNewDistNs.Count() - dist0,
	} {
		if got != n {
			t.Errorf("serve.build.%s_ns observed %d times for %d tuples", name, got, n)
		}
	}
	for i, a := range arts[1:] {
		if a.fp.Mesh != arts[0].fp.Mesh || a.meshID != arts[0].meshID {
			t.Errorf("tuple %d: mesh fingerprint %x / id %x, first tuple %x / %x", i+1, a.fp.Mesh, a.meshID, arts[0].fp.Mesh, arts[0].meshID)
		}
		if &a.massNode[0] != &arts[0].massNode[0] || a.mesh != arts[0].mesh {
			t.Errorf("tuple %d does not share the first tuple's mesh and lumped mass", i+1)
		}
	}
}

// TestBuildSettlesOnlyWhenItOutweighsTheHeap: a build that allocated
// more than the live heap it started from is collected before its first
// solve; one into a larger heap is left to the pacer.
func TestBuildSettlesOnlyWhenItOutweighsTheHeap(t *testing.T) {
	forced := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	big := markHeap()
	big.live = math.MaxUint64
	small := markHeap()
	small.live = 0
	buf := make([]byte, 1<<20)
	buf[len(buf)-1] = 1
	if big.settle() {
		t.Fatal("a build smaller than the live heap was collected")
	}
	before := forced()
	if !small.settle() {
		t.Fatal("a build larger than the live heap was not collected")
	}
	if forced() <= before {
		t.Fatal("settle reported a collection the runtime did not count")
	}
}
