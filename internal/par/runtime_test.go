package par

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// TestBarrierRounds hammers the generation barrier: every party
// increments its slot before each crossing, and after the crossing all
// slots must show the same round — a straggler or a double-release
// breaks the invariant immediately.
func TestBarrierRounds(t *testing.T) {
	const parties, rounds = 8, 500
	b := newBarrier(parties)
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
