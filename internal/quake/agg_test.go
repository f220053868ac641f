package quake

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/obs/analyze"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/testutil"
)

// TestAggregationReducesInterBmaxSF5 is the headline acceptance check:
// on sf5 partitioned onto 64 PEs, grouping PEs onto nodes of 8 must
// cut the max per-PE inter-node block count below the flat B_max — the
// whole point of trading copied words for fused blocks.
func TestAggregationReducesInterBmaxSF5(t *testing.T) {
	m, err := SF5.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, 64, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := comm.Aggregate(s, comm.ContiguousNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(s); err != nil {
		t.Fatal(err)
	}
	x := model.PlanExchange(a, pr.Fmax(), pr.Cmax())
	if x.InterBmax >= pr.Bmax() {
		t.Fatalf("sf5/p=64/nodesize=8: inter-node B_max %d not below flat B_max %d",
			x.InterBmax, pr.Bmax())
	}
	t.Logf("sf5/p=64/nodesize=8: B_max %d -> %d, payload %d words, copied %d words",
		pr.Bmax(), x.InterBmax, a.PayloadWords(), a.CopiedWords())
}

// TestAggSweepSF10 exercises the -agg experiment end to end on the
// cheap scenario: rows come back in order, node size 1 reproduces the
// flat exchange exactly, larger nodes monotonically shrink the fused
// block totals while paying copied words, and the rendered table
// carries the tradeoff columns.
func TestAggSweepSF10(t *testing.T) {
	rows, err := AggSweep(SF10, 16, partition.RCB, []int{1, 2, 4, 8}, 0, 100e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	id := rows[0]
	if id.NodeSize != 1 || id.Nodes != 16 {
		t.Fatalf("first row is not the flat anchor: %+v", id)
	}
	if id.CopiedWords != 0 || id.InterBmax != id.FlatBmax || id.FusedBlocks != id.FlatBlocks {
		t.Fatalf("node size 1 does not reproduce the flat exchange: %+v", id)
	}
	if id.AggComm != id.FlatComm {
		t.Fatalf("node size 1 replay %g != flat replay %g", id.AggComm, id.FlatComm)
	}
	for i := 1; i < len(rows); i++ {
		r, prev := rows[i], rows[i-1]
		if r.FusedBlocks > prev.FusedBlocks {
			t.Errorf("node size %d: fused blocks grew %d -> %d",
				r.NodeSize, prev.FusedBlocks, r.FusedBlocks)
		}
		if r.CopiedWords == 0 {
			t.Errorf("node size %d: no copied words despite grouping", r.NodeSize)
		}
		if r.PayloadWords != id.PayloadWords {
			t.Errorf("node size %d: payload changed %d -> %d",
				r.NodeSize, id.PayloadWords, r.PayloadWords)
		}
		if r.Beta < 1 || r.Beta >= 2 {
			t.Errorf("node size %d: β = %g out of [1,2)", r.NodeSize, r.Beta)
		}
	}
	var sb strings.Builder
	if err := report.AggregationSummary("agg sweep", rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, col := range []string{"fused B_max", "copied words", "vs flat"} {
		if !strings.Contains(out, col) {
			t.Errorf("rendered sweep table missing column %q:\n%s", col, out)
		}
	}
}

// TestNodeSizeOneIsFlat: the flat exchange is the plan of one PE per
// node, bit for bit. On random meshes, partitions and machines, the
// derived Exchange of a node-size-1 plan is the paper's row; every
// model formula over it, analyze's prediction, and the one three-phase
// replay (with the PE-side and the torus fused leg) equal their flat
// counterparts exactly, whatever the on-node costs. At node sizes 2–4
// the derivation matches a recount of the plan's four legs.
func TestNodeSizeOneIsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	draw := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	methods := partition.Methods()
	for trial := 0; trial < 8; trial++ {
		m, _ := testutil.RandomMesh(t, rng)
		for _, p := range []int{2, 4, 8} {
			method := methods[rng.Intn(len(methods))]
			pt, err := partition.PartitionMesh(m, p, method, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			pr, err := partition.Analyze(m, pt)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := comm.FromMatrix(pr.Msg)
			if err != nil {
				t.Fatal(err)
			}
			one, err := comm.Aggregate(sched, comm.ContiguousNodes(1))
			if err != nil {
				t.Fatal(err)
			}
			app := model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
			x := model.PlanExchange(one, app.F, app.Cmax)
			if x != model.FlatExchange(app) || !x.Flat() {
				t.Fatalf("trial %d p=%d: node size 1 exchange %+v, flat row %+v", trial, p, x, app)
			}
			for k := 0; k < 4; k++ {
				mp := machine.Params{Tf: draw(1e-9, 1e-7), Tl: draw(1e-7, 1e-4), Tw: draw(1e-9, 1e-7)}
				local := machine.Params{Tf: mp.Tf, Tl: draw(1e-8, 1e-5), Tw: draw(1e-10, 1e-8)}
				tc := model.RequiredTc(app, 0.05+0.9*rng.Float64(), mp.Tf)
				// The paper's closed forms, evaluated as the flat model
				// always has, are the oracle for both forms.
				b, c := float64(app.Bmax), float64(app.Cmax)
				paperTc := b/c*mp.Tl + mp.Tw
				paperComp, paperComm := float64(app.F)*mp.Tf, b*mp.Tl+c*mp.Tw
				paperE := paperComp / (paperComp + paperComm)
				paperBudget := (tc - mp.Tw) * c / b
				if got, flat := x.Tc(mp.Tl, mp.Tw, local.Tl, local.Tw), model.AchievedTc(app, mp.Tl, mp.Tw); got != paperTc || flat != paperTc {
					t.Fatalf("Tc %v, flat %v, paper %v", got, flat, paperTc)
				}
				gc, gm := x.PhaseTimes(mp.Tf, mp.Tl, mp.Tw, local.Tl, local.Tw)
				fc, fm := model.PhaseTimes(app, mp.Tf, mp.Tl, mp.Tw)
				if gc != paperComp || gm != paperComm || fc != paperComp || fm != paperComm {
					t.Fatalf("phase times %v/%v, flat %v/%v, paper %v/%v", gc, gm, fc, fm, paperComp, paperComm)
				}
				if got, flat := x.Efficiency(mp.Tf, mp.Tl, mp.Tw, local.Tl, local.Tw), model.Efficiency(app, mp.Tf, mp.Tl, mp.Tw); got != paperE || flat != paperE {
					t.Fatalf("efficiency %v, flat %v, paper %v", got, flat, paperE)
				}
				if got, flat := x.LatencyBudget(tc, mp.Tw, local.Tl, local.Tw), model.LatencyBudget(app, tc, mp.Tw); got != paperBudget || flat != paperBudget {
					t.Fatalf("latency budget %v, flat %v, paper %v", got, flat, paperBudget)
				}
				w := analyze.Window{Iters: 1 + rng.Int63n(100), ExchangeNS: []int64{rng.Int63n(1e9)}}
				rep := analyze.Analyze(w, x, mp.Tl, mp.Tw, local.Tl, local.Tw)
				if rep.Drift.PredictedTc != paperTc || rep.Schedule != "flat" {
					t.Fatalf("analysis %q predicts %v, paper %v", rep.Schedule, rep.Drift.PredictedTc, paperTc)
				}

				xbar := machine.Crossbar{Transit: draw(1e-8, 1e-5)}
				if rng.Intn(2) == 0 {
					xbar.BisectionBytesPerSec = draw(1e6, 1e9)
				}
				tor, err := network.NewTorus(p)
				if err != nil {
					t.Fatal(err)
				}
				tor.HopLatency = draw(1e-9, 1e-6)
				if rng.Intn(2) == 0 {
					tor.LinkBytesPerSec = draw(1e6, 1e9)
				}
				for _, topo := range []machine.Topology{xbar, tor} {
					ph, err := machine.Replay(one, local, mp, func(int) machine.Topology { return topo })
					if err != nil {
						t.Fatal(err)
					}
					flat, err := machine.Simulate(sched, mp, topo)
					if err != nil {
						t.Fatal(err)
					}
					if ph.CommTime != flat.CommTime || ph.Gather != 0 || ph.Scatter != 0 {
						t.Fatalf("%T replay %+v, flat %v", topo, ph, flat.CommTime)
					}
				}
			}

			for ns := 2; ns <= 4; ns++ {
				a, err := comm.Aggregate(sched, comm.ContiguousNodes(ns))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := model.PlanExchange(a, app.F, app.Cmax), recountExchange(a, app); got != want {
					t.Fatalf("trial %d p=%d node size %d: derived %+v, recount %+v", trial, p, ns, got, want)
				}
			}
		}
	}
}

// recountExchange is the definition of model.PlanExchange by hand:
// every block of a leg is charged to its sender and its receiver, the
// fused leg's to the inter-node level and the other three legs' to the
// on-node one, and each level keeps its busiest PE's blocks and words.
func recountExchange(a *comm.Aggregated, app model.AppProperties) model.Exchange {
	ib, ic := make([]int64, a.P), make([]int64, a.P)
	lb, lc := make([]int64, a.P), make([]int64, a.P)
	charge := func(leg *comm.Schedule, b, c []int64) {
		for _, out := range leg.Out {
			for _, msg := range out {
				for _, pe := range []int32{msg.From, msg.To} {
					b[pe]++
					c[pe] += msg.Words
				}
			}
		}
	}
	charge(a.Internode, ib, ic)
	for _, leg := range []*comm.Schedule{a.Local, a.Gather, a.Scatter} {
		charge(leg, lb, lc)
	}
	x := model.Exchange{F: app.F, Cmax: app.Cmax}
	for pe := 0; pe < a.P; pe++ {
		x.InterBmax, x.InterCmax = max(x.InterBmax, ib[pe]), max(x.InterCmax, ic[pe])
		x.LocalBmax, x.LocalCmax = max(x.LocalBmax, lb[pe]), max(x.LocalCmax, lc[pe])
	}
	return x
}
