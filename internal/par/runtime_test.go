package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// testBarrier is a barrier for n parties whose waiters spin before they
// park (as the PEs' phase barrier's do) when spin is set, and always
// park otherwise (as the coordinator's start and done barriers do).
func testBarrier(n int, spin bool) *barrier {
	b := newBarrier(n)
	if spin {
		b.spun, b.parked = new(obs.Counter), new(obs.Counter)
	}
	return b
}

// arrived waits until k parties are inside the barrier's current round.
func arrived(b *barrier, k int) {
	for {
		b.mu.Lock()
		c := b.count
		b.mu.Unlock()
		if c == k {
			return
		}
		runtime.Gosched()
	}
}

// TestBarrierRounds hammers the generation barrier: every party
// increments its slot before each crossing, and after the crossing all
// slots must show the same round — a straggler or a double-release
// breaks the invariant immediately. Waiters park, or spin first.
func TestBarrierRounds(t *testing.T) {
	for _, spin := range []bool{false, true} {
		t.Run(fmt.Sprintf("spin=%v", spin), func(t *testing.T) {
			const parties, rounds = 8, 500
			b := testBarrier(parties, spin)
			counts := make([]int, parties)
			var wg sync.WaitGroup
			errs := make(chan error, parties)
			wg.Add(parties)
			for p := 0; p < parties; p++ {
				go func(p int) {
					defer wg.Done()
					for r := 1; r <= rounds; r++ {
						counts[p] = r
						b.await()
						for q := 0; q < parties; q++ {
							if counts[q] != r {
								errs <- fmt.Errorf("party %d saw counts[%d]=%d in round %d", p, q, counts[q], r)
								return
							}
						}
						b.await()
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestBarrierPoisonRule pins the two answers iterate's fault-plan
// indexing depends on, for a waiter that parks and for one that is
// still spinning: released by poison, await returns false; released by
// a round that completed before the poison, it returns true. A spinning
// waiter is the usual case right after its partner acts; trials repeat
// until a few of them were released while spinning.
func TestBarrierPoisonRule(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for _, completed := range []bool{false, true} {
		for _, spin := range []bool{false, true} {
			t.Run(fmt.Sprintf("completed=%v/spin=%v", completed, spin), func(t *testing.T) {
				spun := 0
				for trial := 0; trial < 500 && spun < 5; trial++ {
					b := testBarrier(2, spin)
					got := make(chan bool)
					go func() { got <- b.await() }()
					arrived(b, 1)
					if completed && !b.await() {
						t.Fatal("the last arrival's await returned false")
					}
					b.poison()
					if ok := <-got; ok != completed {
						t.Fatalf("trial %d: waiter returned %v, want %v", trial, ok, completed)
					}
					if b.spun.Value() == 1 {
						spun++
					}
				}
				if spin && spun == 0 {
					t.Fatal("no waiter was released while spinning in 500 trials")
				}
			})
		}
	}
}

// TestBarrierSpinGate runs two Dists of two PEs each under GOMAXPROCS 2:
// while the second is inside a kernel four PEs are running on two
// processors, and no waiter of the first may spin — every one parks.
// Once the second is done the first runs alone, two PEs on two
// processors, and its waiters spin. Either way each crossing releases
// exactly one waiter.
func TestBarrierSpinGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	f := newFixture(t)
	a, _ := f.dist(t, 2, partition.RCB)
	b, _ := f.dist(t, 2, partition.RCB)
	y, x := vecs(a)
	counts := func() (spun, parked int64) {
		return a.rt.met.barrierSpun.Value(), a.rt.met.barrierParked.Value()
	}
	smvps := func(n int) (spun, parked int64) {
		s0, p0 := counts()
		for i := 0; i < n; i++ {
			if _, err := a.SMVP(y, x); err != nil {
				t.Fatal(err)
			}
		}
		s1, p1 := counts()
		return s1 - s0, p1 - p0
	}

	release := make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := b.rt.runKernel(func(int) { <-release }, nil, nil)
		done <- err
	}()
	for running.Load() < 2 {
		runtime.Gosched()
	}
	const n = 200
	spun, parked := smvps(n)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if spun != 0 || parked != n {
		t.Errorf("4 PEs running on 2 processors: %d waiters spun and %d parked over %d crossings, want 0 and %d", spun, parked, n, n)
	}

	spun, parked = smvps(n)
	if spun+parked != n {
		t.Errorf("2 PEs running on 2 processors: %d spun + %d parked over %d crossings, want %d", spun, parked, n, n)
	}
	if spun == 0 && runtime.NumCPU() >= 2 {
		t.Errorf("2 PEs running on 2 processors: no waiter spun over %d crossings", n)
	}
}

// TestSMVPZeroAlloc pins the tentpole property: after the first call,
// the distributed kernel runs entirely out of the persistent runtime's
// preallocated workspaces — zero heap allocations per op, with metric
// collection both off and on (the atomic-gated counters must stay off
// the allocation path too) — under the flat plan a fresh Dist starts
// with and under the flat plan reinstalled over a gathering one.
func TestSMVPZeroAlloc(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = float64(i%5) * 0.5
	}
	run := func() {
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
	}
	for _, plan := range []string{"fresh flat", "flat after aggregated"} {
		for _, metrics := range []bool{false, true} {
			prev := obs.Enabled()
			obs.SetEnabled(metrics)
			run() // steady state: buffers and goroutines already live
			if avg := testing.AllocsPerRun(10, run); avg != 0 {
				t.Errorf("%s (metrics=%v): %.1f allocs/op, want 0", plan, metrics, avg)
			}
			obs.SetEnabled(prev)
		}
		if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
			t.Fatal(err)
		}
		run()
		if err := d.SetAggregation(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSolvesOneDist hammers the concurrency contract: kernel
// invocations on one Dist from many goroutines are safe (the runtime
// serializes them), so independent CG solves may share the operator.
// Each solve keeps its own vectors and workspace; only the Dist — and
// through it the persistent PEs — is shared. Run under -race by `make
// race`.
func TestConcurrentSolvesOneDist(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	op := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	n := op.Dim()

	const solvers = 4
	var wg sync.WaitGroup
	errs := make(chan error, solvers)
	wg.Add(solvers)
	for s := 0; s < solvers; s++ {
		go func(s int) {
			defer wg.Done()
			b := make([]float64, n)
			b[(s*7)%n] = 100
			b[(s*13+5)%n] = -30
			x := make([]float64, n)
			ws := solver.NewWorkspace(n)
			for iter := 0; iter < 3; iter++ {
				for i := range x {
					x[i] = 0
				}
				res, err := solver.CG(op, b, x, solver.Config{MaxIter: 4 * n, Tol: 1e-8, Workspace: ws})
				if err != nil {
					errs <- fmt.Errorf("solver %d: %v", s, err)
					return
				}
				if !res.Converged {
					errs <- fmt.Errorf("solver %d did not converge: %+v", s, res)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTimingOwnership documents the Timing reuse rule: the runtime
// returns the same (reused) Timing on every call, so callers that need
// a result across calls must copy it.
func TestTimingOwnership(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	tm1, err := d.SMVP(y, x)
	if err != nil {
		t.Fatal(err)
	}
	tm2, err := d.SMVP(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if tm1 != tm2 {
		t.Errorf("expected the runtime-owned Timing to be reused across calls (got %p vs %p)", tm1, tm2)
	}
}

// TestCloseSemantics: Close is idempotent, and every kernel entry point
// reports the closed state instead of hanging.
func TestCloseSemantics(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	pt, err := partition.PartitionMesh(f.m, 3, partition.RCB, 7)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(f.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDist(f.m, f.mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewDistSim(d, f.sys.MassNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	if _, err := d.SMVP(y, x); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if _, err := d.SMVP(y, x); err == nil {
		t.Error("SMVP on closed Dist succeeded")
	}
	if _, err := sim.Run(f.m.Coords, simCfg(f, 2)); err == nil {
		t.Error("DistSim.Run on closed Dist succeeded")
	}
}

// TestConcurrentCloseDuringKernels races Close against a stream of
// in-flight kernels from several goroutines: the dispatch mutex must
// make every call either complete normally or report the closed state —
// never hang, race, or panic. Run under -race by `make race`.
func TestConcurrentCloseDuringKernels(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	pt, err := partition.PartitionMesh(f.m, 4, partition.RCB, 7)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(f.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDist(f.m, f.mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	start := make(chan struct{})
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			x := make([]float64, 3*d.GlobalNodes)
			y := make([]float64, 3*d.GlobalNodes)
			x[c] = 1
			<-start
			for i := 0; ; i++ {
				if _, err := d.SMVP(y, x); err != nil {
					// The only legal failure is the closed report; anything
					// else (a poisoned barrier, a partial result) is a bug.
					if !errors.Is(err, errClosed) {
						errs <- fmt.Errorf("caller %d kernel %d: %v", c, i, err)
					}
					return
				}
			}
		}(c)
	}
	close(start)
	d.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Close remains idempotent after the race.
	d.Close()
}
