package network

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
)

func netSchedule(t testing.TB, m [][]int64) *comm.Schedule {
	t.Helper()
	s, err := comm.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func netRandomMatrix(rng *rand.Rand, p int) [][]int64 {
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rng.Float64() < 0.5 {
				w := int64(3 * (1 + rng.Intn(100)))
				m[i][j], m[j][i] = w, w
			}
		}
	}
	return m
}

func localNet() machine.Params {
	return machine.Params{Name: "on-node", Tf: 1e-9, Tl: 0.5e-6, Tw: 5e-9}
}

// TestSimulateAggregatedTorusReducesToFlat: with one PE per node the
// node torus is the PE torus and the fused schedule is the flat one,
// so the aggregated replay must match Simulate exactly, contended or
// not.
func TestSimulateAggregatedTorusReducesToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{8, 12, 27} {
		s := netSchedule(t, netRandomMatrix(rng, p))
		a, err := comm.Aggregate(s, comm.ContiguousNodes(1))
		if err != nil {
			t.Fatal(err)
		}
		tor, err := NewTorus(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{{}, {HopLatency: 100e-9}, {LinkBytesPerSec: 100e6, HopLatency: 100e-9}} {
			flat, err := Simulate(s, machine.T3E(), tor, cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := machine.Replay(a, localNet(), Fused(machine.T3E(), cfg))
			if err != nil {
				t.Fatal(err)
			}
			if agg.CommTime != flat.CommTime {
				t.Fatalf("p=%d cfg=%+v: aggregated %g != flat %g",
					p, cfg, agg.CommTime, flat.CommTime)
			}
			if agg.Gather != 0 || agg.Scatter != 0 {
				t.Fatalf("p=%d: identity aggregation has local phases %g/%g",
					p, agg.Gather, agg.Scatter)
			}
		}
	}
}

// TestSimulateAggregatedNodeTorus: the fused leg rides a torus of
// nodes, built from the plan's node count, and the phases of the
// replay add.
func TestSimulateAggregatedNodeTorus(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := netSchedule(t, netRandomMatrix(rng, 16))
	a, err := comm.Aggregate(s, comm.ContiguousNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LinkBytesPerSec: 100e6}
	res, err := machine.Replay(a, localNet(), Fused(machine.T3E(), cfg))
	if err != nil {
		t.Fatal(err)
	}
	nodeTorus, err := NewTorus(a.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := Simulate(a.InternodeByNode(), machine.T3E(), nodeTorus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Internode != inter.CommTime {
		t.Fatalf("fused leg %g, node-torus replay %g", res.Internode, inter.CommTime)
	}
	sum := res.Gather + res.Internode + res.Scatter
	if math.Abs(res.CommTime-sum) > 1e-18 {
		t.Fatalf("CommTime %g != phase sum %g", res.CommTime, sum)
	}
	if res.Gather <= 0 || res.Scatter <= 0 {
		t.Fatalf("grouped plan should have local phases, got %g/%g",
			res.Gather, res.Scatter)
	}
	if _, err := machine.Replay(a, machine.Params{Tf: 1e-9, Tl: -1}, Fused(machine.T3E(), Config{})); err == nil {
		t.Fatal("negative local parameters accepted")
	}
}

// TestSimulateDegenerateTori covers the contended-replay edge cases:
// a single-PE torus, an all-zero (no-message) schedule, and the 1×1×p
// ring a prime PE count degenerates to — all must simulate without
// error and respect the free-network lower bound.
func TestSimulateDegenerateTori(t *testing.T) {
	// Single PE: no traffic possible, zero comm time.
	tor1, err := NewTorus(1)
	if err != nil {
		t.Fatal(err)
	}
	empty := netSchedule(t, [][]int64{{0}})
	res, err := Simulate(empty, machine.T3E(), tor1, Config{LinkBytesPerSec: 1e6, HopLatency: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommTime != 0 || res.MaxHops != 0 || res.MaxLinkBusy != 0 {
		t.Fatalf("single-PE sim nonzero: %+v", res)
	}

	// Many PEs, no messages: the exchange is a no-op.
	tor4, err := NewTorus(4)
	if err != nil {
		t.Fatal(err)
	}
	silent := netSchedule(t, [][]int64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}})
	res, err = Simulate(silent, machine.T3E(), tor4, Config{LinkBytesPerSec: 1e6, HopLatency: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommTime != 0 {
		t.Fatalf("zero-word schedule took %g s", res.CommTime)
	}
	za, err := comm.Aggregate(silent, comm.ContiguousNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	zres, err := machine.Replay(za, localNet(), Fused(machine.T3E(), Config{LinkBytesPerSec: 1e6}))
	if err != nil {
		t.Fatal(err)
	}
	if zres.CommTime != 0 {
		t.Fatalf("aggregated zero-word schedule took %g s", zres.CommTime)
	}

	// Prime count: the factorization degenerates to a 1×1×7 ring and
	// every route must stay within the ring (≤ 3 hops each way).
	tor7, err := NewTorus(7)
	if err != nil {
		t.Fatal(err)
	}
	if tor7.DX != 1 || tor7.DY != 1 || tor7.DZ != 7 {
		t.Fatalf("NewTorus(7) = %+v, want 1x1x7", tor7)
	}
	rng := rand.New(rand.NewSource(13))
	s7 := netSchedule(t, netRandomMatrix(rng, 7))
	free, err := Simulate(s7, machine.T3E(), tor7, Config{HopLatency: 100e-9})
	if err != nil {
		t.Fatal(err)
	}
	if free.MaxHops > 3 {
		t.Fatalf("ring of 7: max hops %d > 3", free.MaxHops)
	}
	contended, err := Simulate(s7, machine.T3E(), tor7, Config{LinkBytesPerSec: 10e6, HopLatency: 100e-9})
	if err != nil {
		t.Fatal(err)
	}
	if contended.CommTime < free.CommTime {
		t.Fatalf("contention sped up the ring: %g < %g", contended.CommTime, free.CommTime)
	}

	// Aggregating a prime PE count onto a prime node count still
	// replays: 7 PEs on nodes of 3 → 3 nodes, a 1×1×3 ring.
	a, err := comm.Aggregate(s7, comm.ContiguousNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := machine.Replay(a, localNet(), Fused(machine.T3E(), Config{LinkBytesPerSec: 10e6}))
	if err != nil {
		t.Fatal(err)
	}
	if agg.CommTime <= 0 {
		t.Fatal("aggregated ring replay reported zero exchange time")
	}
}
