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

	"repro/internal/obs"
	"repro/internal/par"
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

// TestPoolWorkersShareOperators: the second worker of one artifact — a
// spawn, the pool holding only the build's — takes every operator from
// the artifact instead of assembling it: its K are the first worker's,
// par.dist.ops_shared moves by p and par.dist.elems_integrated not at all.
// Both workers then run the same SMVP at once, reading the shared
// operators concurrently, to the same bits.
func TestPoolWorkersShareOperators(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := newTestEngine(t, Config{WarmPool: 2})
	a, _, err := e.artifact(Key{Scenario: "tiny-share", P: 3, Method: "rcb", NodeSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	integrated, shared := obs.GetCounter("par.dist.elems_integrated"), obs.GetCounter("par.dist.ops_shared")
	integrated0, shared0, spawns0 := integrated.Value(), shared.Value(), poolSpawnNs.Count()
	w1, err := a.checkout()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := a.checkout()
	if err != nil {
		t.Fatal(err)
	}
	if w1 == w2 {
		t.Fatal("two checkouts returned one worker")
	}
	for i := range w1.K {
		if w1.K[i] != w2.K[i] {
			t.Errorf("worker 2's K[%d] is not worker 1's", i)
		}
	}
	if di, ds, dn := integrated.Value()-integrated0, shared.Value()-shared0, poolSpawnNs.Count()-spawns0; di != 0 || ds != 3 || dn != 1 {
		t.Errorf("the spawn integrated %d elements and shared %d operators over %d spawns, want 0, 3, 1", di, ds, dn)
	}
	x := make([]float64, 3*w1.GlobalNodes)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	y1, y2 := make([]float64, len(x)), make([]float64, len(x))
	var wg sync.WaitGroup
	for _, run := range []struct {
		w *par.Dist
		y []float64
	}{{w1, y1}, {w2, y2}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := run.w.SMVP(run.y, x); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
			t.Fatalf("y[%d]: %x on worker 1, %x on worker 2", i, math.Float64bits(y1[i]), math.Float64bits(y2[i]))
		}
	}
	a.release(w1, true)
	a.release(w2, true)
	if got := a.Warm(); got != 2 {
		t.Errorf("%d warm workers pooled, want 2", got)
	}
}
