package machine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
)

func localPreset() Params { return Params{Name: "on-node", Tf: 1e-9, Tl: 0.5e-6, Tw: 5e-9} }

// joins returns the topology function of Replay that puts every node
// count on topo.
func joins(topo Topology) func(int) Topology { return func(int) Topology { return topo } }

func aggregateFor(t *testing.T, s *comm.Schedule, nodeSize int) *comm.Aggregated {
	t.Helper()
	a, err := comm.Aggregate(s, comm.ContiguousNodes(nodeSize))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSimulateAggregatedReducesToFlat: with one PE per node the local
// legs are empty and the fused leg is the flat schedule, so the
// three-phase replay must equal the flat simulation bit for bit — on
// random schedules, with and without the bisection channel.
func TestSimulateAggregatedReducesToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 5, 8, 16} {
		s := mustSchedule(t, randomMatrix(rng, p))
		a := aggregateFor(t, s, 1)
		for _, net := range []Crossbar{{}, {Transit: 1e-6}, {BisectionBytesPerSec: 50e6}} {
			flat := simulate(t, s, T3E(), net)
			agg, err := Replay(a, localPreset(), T3E(), joins(net))
			if err != nil {
				t.Fatal(err)
			}
			if agg.CommTime != flat.CommTime || agg.Internode != flat.CommTime {
				t.Fatalf("p=%d net=%+v: aggregated %g (fused %g) != flat %g",
					p, net, agg.CommTime, agg.Internode, flat.CommTime)
			}
			if agg.Gather != 0 || agg.Scatter != 0 {
				t.Fatalf("p=%d: identity aggregation has local phases %g/%g",
					p, agg.Gather, agg.Scatter)
			}
		}
	}
}

// TestSimulateAggregatedPhasesAdd: the reported total is exactly the
// sum of the three sequential phase times, and grouping everything
// onto one node leaves no inter-node phase at all.
func TestSimulateAggregatedPhasesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := mustSchedule(t, randomMatrix(rng, 12))
	a := aggregateFor(t, s, 4)
	res, err := Replay(a, localPreset(), T3E(), joins(Crossbar{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gather <= 0 || res.Scatter <= 0 {
		t.Fatalf("grouped plan should have on-node phases, got %g/%g", res.Gather, res.Scatter)
	}
	sum := res.Gather + res.Internode + res.Scatter
	if math.Abs(res.CommTime-sum) > 1e-18 {
		t.Fatalf("CommTime %g != phase sum %g", res.CommTime, sum)
	}
	one := aggregateFor(t, s, 12)
	all, err := Replay(one, localPreset(), T3E(), joins(Crossbar{}))
	if err != nil {
		t.Fatal(err)
	}
	if all.Internode != 0 || all.Scatter != 0 {
		t.Fatalf("one-node plan has inter-node %g / scatter %g",
			all.Internode, all.Scatter)
	}
}

// TestSimulateAggregatedBeatsFlatWhenLatencyBound: the transform's
// reason to exist — on a latency-dominated machine (large T_l, cheap
// local copies) the fused exchange finishes sooner than the flat one.
func TestSimulateAggregatedBeatsFlatWhenLatencyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := mustSchedule(t, randomMatrix(rng, 16))
	a := aggregateFor(t, s, 4)
	// Make blocks expensive and words (and local copies) nearly free.
	p := Params{Name: "latency-bound", Tf: 1e-9, Tl: 100e-6, Tw: 1e-9}
	local := Params{Name: "on-node", Tf: 1e-9, Tl: 0.1e-6, Tw: 0.5e-9}
	flat := simulate(t, s, p, Crossbar{})
	agg, err := Replay(a, local, p, joins(Crossbar{}))
	if err != nil {
		t.Fatal(err)
	}
	if agg.CommTime >= flat.CommTime {
		t.Fatalf("aggregated %g not below flat %g on a latency-bound machine",
			agg.CommTime, flat.CommTime)
	}
}

// TestSimulateAggregatedRejects: invalid machine or local parameters
// are refused.
func TestSimulateAggregatedRejects(t *testing.T) {
	s := mustSchedule(t, [][]int64{{0, 6}, {6, 0}})
	a := aggregateFor(t, s, 2)
	if _, err := Replay(a, localPreset(), Params{}, joins(Crossbar{})); err == nil {
		t.Error("zero machine parameters accepted")
	}
	if _, err := Replay(a, Params{Tf: 1e-9, Tl: -1}, T3E(), joins(Crossbar{})); err == nil {
		t.Error("negative local latency accepted")
	}
}
