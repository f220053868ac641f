package model

import (
	"math"
	"testing"
)

func TestAchievedTcAggregatedReducesToFlat(t *testing.T) {
	// Node size one: the fused leg IS the flat schedule and there are
	// no local legs, so the extended model must equal Equation (2).
	app := AppProperties{F: 1e6, Cmax: 9000, Bmax: 48}
	a := Exchange{F: app.F, Cmax: app.Cmax, InterBmax: app.Bmax, InterCmax: app.Cmax}
	if a != FlatExchange(app) || !a.Flat() {
		t.Fatalf("node-size-1 exchange %+v is not the flat row %+v", a, FlatExchange(app))
	}
	tl, tw := 22e-6, 55e-9
	got := a.Tc(tl, tw, 0, 0)
	want := AchievedTc(app, tl, tw)
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("aggregated Tc = %g, want flat %g", got, want)
	}
	ec, em := a.PhaseTimes(10e-9, tl, tw, 0, 0)
	fc, fm := PhaseTimes(app, 10e-9, tl, tw)
	if ec != fc || math.Abs(em-fm) > 1e-15 {
		t.Errorf("phase times %g/%g, want %g/%g", ec, em, fc, fm)
	}
}

func TestAchievedTcAggregatedTradesBlocksForWords(t *testing.T) {
	// The aggregation's bargain: far fewer inter-node blocks, some
	// extra copied words at cheap local rates. On a latency-dominated
	// machine the aggregated Tc must come out lower.
	app := AppProperties{F: 1e6, Cmax: 9000, Bmax: 48}
	agg := Exchange{
		F: app.F, Cmax: app.Cmax,
		InterBmax: 8,        // 6× fewer expensive blocks
		InterCmax: app.Cmax, // payload unchanged
		LocalBmax: 60,       // gather/scatter legs
		LocalCmax: 2 * 9000, // every payload word copied twice on-node
	}
	tl, tw := 22e-6, 55e-9
	ltl, ltw := 0.5e-6, 5e-9
	flat := AchievedTc(app, tl, tw)
	hier := agg.Tc(tl, tw, ltl, ltw)
	if hier >= flat {
		t.Errorf("aggregated Tc %g not below flat %g on a latency-bound machine", hier, flat)
	}
	if e := agg.Efficiency(10e-9, tl, tw, ltl, ltw); e <= Efficiency(app, 10e-9, tl, tw) {
		t.Errorf("aggregated efficiency %g not above flat", e)
	}
}

func TestAggregatedLatencyBudget(t *testing.T) {
	app := AppProperties{F: 1e6, Cmax: 9000, Bmax: 48}
	agg := Exchange{F: app.F, Cmax: app.Cmax, InterBmax: 8, InterCmax: 9000, LocalBmax: 60, LocalCmax: 18000}
	ltl, ltw := 0.5e-6, 5e-9
	tc := RequiredTc(app, 0.8, 10e-9)
	tw := 55e-9
	budget := agg.LatencyBudget(tc, tw, ltl, ltw)
	// Plugging the budget back in must achieve tc exactly.
	check := agg.Tc(budget, tw, ltl, ltw)
	if math.Abs(check-tc) > 1e-15 {
		t.Errorf("achieved Tc at budget latency = %g, want %g", check, tc)
	}
	// The aggregated budget must dominate the flat one: the fused leg
	// amortizes each expensive block over more payload.
	if flat := LatencyBudget(app, tc, tw); budget <= flat {
		t.Errorf("aggregated latency budget %g not above flat %g", budget, flat)
	}
}

func TestAggPropertiesValidate(t *testing.T) {
	good := Exchange{F: 100, Cmax: 10, InterBmax: 1, InterCmax: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid exchange rejected: %v", err)
	}
	if err := (Exchange{F: 100}).Validate(); err != nil {
		t.Errorf("silent exchange rejected: %v", err)
	}
	cases := []Exchange{
		{Cmax: 10, InterBmax: 1, InterCmax: 10},                        // no flops
		{F: 100, Cmax: 10, InterBmax: -1},                              // negative
		{F: 100, Cmax: 10, InterBmax: 1, InterCmax: 0},                 // B/C not zero together
		{F: 100, Cmax: 10, InterBmax: 0, InterCmax: 5},                 // C without B
		{F: 100, Cmax: 10, InterBmax: 1, InterCmax: 10, LocalCmax: -3}, // negative local
		{F: 100, Cmax: 10, InterBmax: 1, InterCmax: 10, LocalBmax: 2},  // local B without C
		{F: 100, InterBmax: 1, InterCmax: 10},                          // traffic without payload
		{F: 100, Cmax: 10},                                             // payload without traffic
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestBetaOfMatchesKnownCases(t *testing.T) {
	// One PE attains both maxima: β = 1.
	if b := BetaOf([]int64{100, 40}, []int64{8, 4}); b != 1 {
		t.Errorf("dominating PE: β = %g, want 1", b)
	}
	// No traffic at all: β = 1 by convention.
	if b := BetaOf([]int64{0, 0}, []int64{0, 0}); b != 1 {
		t.Errorf("silent PEs: β = %g, want 1", b)
	}
	// Split maxima: PE0 has C_max, PE1 has B_max; β ∈ (1, 2).
	b := BetaOf([]int64{100, 50}, []int64{4, 8})
	if b <= 1 || b >= 2 {
		t.Errorf("split maxima: β = %g, want in (1,2)", b)
	}
	// Silent PEs are skipped, not counted as minimizers.
	b2 := BetaOf([]int64{100, 50, 0}, []int64{4, 8, 0})
	if b2 != b {
		t.Errorf("silent PE changed β: %g vs %g", b2, b)
	}
}
