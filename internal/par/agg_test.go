package par

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// TestSMVPAggregatedBitIdentical pins the aggregation correctness
// contract: for every node size — identity (one PE per node), proper
// grouping, and one-node (everything local) — the aggregated SMVP must
// produce exactly the flat kernel's bits. The staging copies move
// unmodified float64s and the receive loop keeps the flat neighbor
// order, so even the floating-point rounding must match, not just the
// mathematical value.
func TestSMVPAggregatedBitIdentical(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 6, partition.RCB)
	y, x := vecs(d)
	want := make([]float64, len(y))
	if _, err := d.SMVP(want, x); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 3, 4, 6, 8} {
		t.Run(fmt.Sprintf("nodesize=%d", size), func(t *testing.T) {
			if err := d.SetAggregation(comm.ContiguousNodes(size)); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := d.SetAggregation(nil); err != nil {
					t.Fatal(err)
				}
			}()
			for i := range y {
				y[i] = 0
			}
			if _, err := d.SMVP(y, x); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("y[%d] = %x, flat %x (0 ULP required)", i, y[i], want[i])
				}
			}
		})
	}
	// Disabled again: still flat-identical.
	for i := range y {
		y[i] = 0
	}
	if _, err := d.SMVP(y, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("after disabling: y[%d] = %x, want %x", i, y[i], want[i])
		}
	}
}

// TestSMVPZeroAllocAggregated extends the runtime's tentpole property
// to the two-level exchange: all staging buffers and copy lists are
// built by SetAggregation, so the aggregated steady-state kernel must
// still allocate nothing — with metrics both off and on.
func TestSMVPZeroAllocAggregated(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
		t.Fatal(err)
	}
	y, x := vecs(d)
	run := func() {
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
	}
	for _, metrics := range []bool{false, true} {
		prev := obs.Enabled()
		obs.SetEnabled(metrics)
		run() // steady state
		if avg := testing.AllocsPerRun(10, run); avg != 0 {
			t.Errorf("aggregated SMVP (metrics=%v): %.1f allocs/op, want 0", metrics, avg)
		}
		obs.SetEnabled(prev)
	}
}

// TestAggregationStats checks the plan accounting: a fresh Dist
// reports disabled, nothing staged, and the flat schedule's own blocks
// (node size 1); an enabled plan reports one fused block per
// ordered node pair with traffic (cross-checked against comm.Aggregate
// on the same exchange topology) and a positive staged-byte volume;
// disabling zeroes it again.
func TestAggregationStats(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	s := distSchedule(t, d)
	fused, staged, enabled := d.AggregationStats()
	if enabled || staged != 0 || fused != totalBlocks(s) {
		t.Fatalf("fresh Dist: fused=%d staged=%d enabled=%v, want the flat schedule's %d blocks, nothing staged, disabled",
			fused, staged, enabled, totalBlocks(s))
	}
	if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
		t.Fatal(err)
	}
	fused, staged, enabled = d.AggregationStats()
	if !enabled {
		t.Fatal("enabled plan reports disabled")
	}
	if fused <= 0 || staged <= 0 {
		t.Fatalf("fused=%d staged=%d, want both positive", fused, staged)
	}
	// Cross-check against the comm-layer transform on the same topology:
	// the runtime's fused block count must equal the Aggregated plan's.
	a, err := comm.Aggregate(s, comm.ContiguousNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := totalBlocks(a.Internode); fused != want {
		t.Fatalf("runtime fused blocks = %d, comm.Aggregate says %d", fused, want)
	}
	if err := d.SetAggregation(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, enabled := d.AggregationStats(); enabled {
		t.Fatal("disabled plan still reports enabled")
	}
}

// distSchedule rebuilds the flat comm.Schedule of a Dist's exchange
// lists (3 words per shared node per direction).
func distSchedule(t *testing.T, d *Dist) *comm.Schedule {
	t.Helper()
	msg := make([][]int64, d.P)
	for i := range msg {
		msg[i] = make([]int64, d.P)
	}
	for pe := 0; pe < d.P; pe++ {
		for k, nbr := range d.Neighbors[pe] {
			msg[pe][nbr] = int64(3 * len(d.Shared[pe][k]))
		}
	}
	s, err := comm.FromMatrix(msg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func totalBlocks(s *comm.Schedule) int64 {
	var n int64
	for _, msgs := range s.Out {
		n += int64(len(msgs))
	}
	return n
}

// TestSetAggregationRejects: a mapping that assigns a negative node id
// is refused and leaves the Dist flat; a closed Dist refuses the swap.
func TestSetAggregationRejects(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	if err := d.SetAggregation(func(pe int32) int32 { return -1 }); err == nil {
		t.Fatal("negative node mapping accepted")
	}
	if err := d.SetAggregation(comm.ContiguousNodes(0)); err == nil {
		t.Fatal("ContiguousNodes(0) mapping accepted")
	}
	if _, _, enabled := d.AggregationStats(); enabled {
		t.Fatal("rejected mapping left aggregation enabled")
	}
	y, x := vecs(d)
	if _, err := d.SMVP(y, x); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if err := d.SetAggregation(comm.ContiguousNodes(2)); err == nil {
		t.Fatal("SetAggregation on closed Dist succeeded")
	}
}

// TestPanicContainmentAggregated repeats the fault containment check
// with the two-level exchange installed: the aggregated kernel has an
// extra intra-kernel barrier, and a PE that dies before reaching it
// must not strand the leaders waiting to gather — the poisoned barrier
// drains everyone and the kernel reports ErrPoisoned.
func TestPanicContainmentAggregated(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	if err := d.SetAggregation(comm.ContiguousNodes(2)); err != nil {
		t.Fatal(err)
	}
	in, err := d.InjectFaults(mustPlan(t, "panic:pe=1,iter=1"))
	if err != nil {
		t.Fatal(err)
	}
	y, x := vecs(d)
	done := make(chan error, 1)
	go func() {
		_, err := d.SMVP(y, x)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(watchdog):
		t.Fatal("injected PE panic deadlocked the aggregated kernel")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("aggregated faulted kernel error: %v, want ErrPoisoned", err)
	}
	if got := in.Count(fault.Panic); got != 1 {
		t.Fatalf("injector counted %d panics, want 1", got)
	}
	if _, err := d.SMVP(y, x); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("SMVP after poison: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(watchdog):
		t.Fatal("Close deadlocked on a poisoned aggregated Dist")
	}
}

// TestPlansBitIdentical: there is one kernel shape, so every exchange
// plan — the flat one SetAggregation(nil) installs, node size 1, and
// node sizes that leave a partial last node — must give the SMVP, a
// resident CG solve and a DistSim run the same bits, on random graded
// meshes.
func TestPlansBitIdentical(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		m, mat := testutil.RandomMesh(t, rand.New(rand.NewSource(seed)))
		sys, err := fem.Assemble(m, mat)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{3, 4, 8} {
			pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := partition.Analyze(m, pt)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDist(m, mat, pt, pr)
			if err != nil {
				t.Fatal(err)
			}
			op := Operator{D: d, Shift: 20, MassNode: sys.MassNode}
			b := cgRHS(op.Dim())
			sim, err := NewDistSim(d, sys.MassNode, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fem.SimConfig{Dt: sys.StableDt(0.5), Steps: 20, Receivers: []int32{int32(m.NumNodes() / 3)},
				Source: fem.PointSource{Location: m.Coords[len(m.Coords)/2], Direction: geom.V(0, 0, 1), Amplitude: 5, PeakFreq: 2, Delay: 0.5}}
			// run returns everything the three kernels produce under nodeOf.
			run := func(nodeOf func(pe int32) int32) [][]float64 {
				if err := d.SetAggregation(nodeOf); err != nil {
					t.Fatal(err)
				}
				y, x := make([]float64, len(b)), make([]float64, len(b))
				if _, err := d.SMVP(y, b); err != nil {
					t.Fatal(err)
				}
				res, err := solver.CG(op, b, x, solver.Config{MaxIter: len(b), Tol: 1e-8})
				if err != nil || !res.Converged {
					t.Fatalf("resident solve: %+v, err=%v", res, err)
				}
				out, err := sim.Run(m.Coords, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return append([][]float64{y, x, {float64(res.Iterations)}, out.Seismograms[0]}, sim.u...)
			}
			want := run(nil)
			for _, size := range []int{1, 2, 3} {
				got := run(comm.ContiguousNodes(size))
				for v := range want {
					for i := range want[v] {
						if math.Float64bits(got[v][i]) != math.Float64bits(want[v][i]) {
							t.Fatalf("seed %d p=%d node size %d: output %d[%d] = %x, flat %x",
								seed, p, size, v, i, math.Float64bits(got[v][i]), math.Float64bits(want[v][i]))
						}
					}
				}
			}
			d.Close()
		}
	}
}

// TestExchangeCrossings reads the phase barrier's generation: an
// exchange is one crossing under a plan in which no leader gathers —
// the flat plan, node size 1, one node holding every PE — and two when
// any does, for the SMVP and for every DistSim step alike.
func TestExchangeCrossings(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 4, partition.RCB)
	sim, err := NewDistSim(d, f.sys.MassNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	y, x := vecs(d)
	gen := func() uint64 {
		d.rt.bar.mu.Lock()
		defer d.rt.bar.mu.Unlock()
		return d.rt.bar.gen
	}
	for _, c := range []struct {
		name   string
		nodeOf func(pe int32) int32
		want   uint64
	}{
		{"flat", nil, 1},
		{"node size 1", comm.ContiguousNodes(1), 1},
		{"node size 2", comm.ContiguousNodes(2), 2},
		{"node size 3, last node one PE", comm.ContiguousNodes(3), 2},
		{"one node", comm.ContiguousNodes(4), 1},
		{"flat again", nil, 1},
	} {
		if err := d.SetAggregation(c.nodeOf); err != nil {
			t.Fatal(err)
		}
		before := gen()
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
		if got := gen() - before; got != c.want {
			t.Errorf("%s: SMVP crossed the phase barrier %d times, want %d", c.name, got, c.want)
		}
		before = gen()
		if _, err := sim.Run(f.m.Coords, simCfg(f, 3)); err != nil {
			t.Fatal(err)
		}
		if got := gen() - before; got != 3*c.want {
			t.Errorf("%s: 3 DistSim steps crossed the phase barrier %d times, want %d", c.name, got, 3*c.want)
		}
		if _, _, enabled := d.AggregationStats(); enabled != (c.want > 1) {
			t.Errorf("%s: AggregationStats enabled=%v with %d crossings", c.name, enabled, c.want)
		}
	}
}
