package model

// Equation (2) for any exchange plan of comm.Aggregate. On a clustered
// machine the blocks that matter are the inter-node ones, while the
// gather/scatter copy legs move words between PEs of one node at a much
// cheaper latency and a much higher bandwidth, so the communication
// term splits by level:
//
//	T_comm = B_inter·T_l + C_inter·T_w + B_local·T_l_loc + C_local·T_w_loc
//	T_c    = T_comm / C_max,
//
// where C_max is still the FLAT payload word count — the copied words
// appear as the C_local excess, so the comparison against RequiredTc
// (Equation 1) stays apples-to-apples. The flat exchange is the plan of
// one PE per node (FlatExchange): nothing moves on a node and the fused
// leg is the paper's (C_max, B_max).

import (
	"fmt"
	"math"

	"repro/internal/comm"
)

// Exchange is the input to Equation (2) for one exchange plan: the
// per-PE maxima of its two levels plus the partition's flops and
// payload. All counts follow the paper's convention (sent plus received
// by one PE). Build it from a plan with PlanExchange, or from the
// paper's row with FlatExchange.
type Exchange struct {
	// F is the flops per PE per SMVP; Cmax the flat payload words of
	// the busiest PE, the normalizer of T_c.
	F, Cmax int64
	// InterBmax and InterCmax are the max inter-node blocks and words
	// of any PE (the fused leader-to-leader leg).
	InterBmax, InterCmax int64
	// LocalBmax and LocalCmax are the max on-node blocks and words of
	// any PE, counted over the local, gather and scatter legs together.
	LocalBmax, LocalCmax int64
}

// FlatExchange is the paper's (F, C_max, B_max) row as an exchange:
// every block is inter-node and nothing moves on a node.
func FlatExchange(app AppProperties) Exchange {
	return Exchange{F: app.F, Cmax: app.Cmax, InterBmax: app.Bmax, InterCmax: app.Cmax}
}

// PlanExchange derives the Equation (2) inputs of a plan, given the
// partition's flops per PE f and flat payload C_max: the inter-node
// maxima over the fused leg, the on-node ones over each PE's local,
// gather and scatter legs summed. A plan of one PE per node yields
// exactly FlatExchange of the partition's row.
func PlanExchange(a *comm.Aggregated, f, cmax int64) Exchange {
	lc, lb := make([]int64, a.P), make([]int64, a.P)
	for _, leg := range []*comm.Schedule{a.Local, a.Gather, a.Scatter} {
		for pe, w := range leg.WordsPerPE() {
			lc[pe] += w
		}
		for pe, n := range leg.BlocksPerPE() {
			lb[pe] += n
		}
	}
	ic, ib := a.InterCB()
	return Exchange{F: f, Cmax: cmax,
		InterBmax: maxOf(ib), InterCmax: maxOf(ic),
		LocalBmax: maxOf(lb), LocalCmax: maxOf(lc)}
}

// Flat reports whether the plan moves nothing on a node — the flat
// exchange, whose inter-node leg is the paper's schedule.
func (x Exchange) Flat() bool { return x.LocalBmax == 0 && x.LocalCmax == 0 }

// Validate reports whether the inputs can drive the model.
func (x Exchange) Validate() error {
	if x.F <= 0 {
		return fmt.Errorf("model: F must be positive, got %d", x.F)
	}
	if x.Cmax < 0 || x.InterBmax < 0 || x.InterCmax < 0 || x.LocalBmax < 0 || x.LocalCmax < 0 {
		return fmt.Errorf("model: negative exchange maxima %+v", x)
	}
	if (x.InterCmax == 0) != (x.InterBmax == 0) || (x.LocalCmax == 0) != (x.LocalBmax == 0) {
		return fmt.Errorf("model: words and blocks of a level must be zero together: %+v", x)
	}
	if (x.Cmax == 0) != (x.InterCmax == 0 && x.LocalCmax == 0) {
		return fmt.Errorf("model: payload Cmax %d without matching traffic: %+v", x.Cmax, x)
	}
	return nil
}

// Tc evaluates Equation (2): the amortized time per payload word of
// the exchange when an inter-node block costs tl + words·tw and an
// on-node one localTl + words·localTw. Cmax must be positive.
func (x Exchange) Tc(tl, tw, localTl, localTw float64) float64 {
	if x.Cmax <= 0 {
		panic("model: T_c needs positive Cmax")
	}
	c := float64(x.Cmax)
	return float64(x.InterBmax)/c*tl + float64(x.InterCmax)/c*tw +
		float64(x.LocalBmax)/c*localTl + float64(x.LocalCmax)/c*localTw
}

// PhaseTimes returns the modeled computation and communication phase
// times of one SMVP: T_comp = F·tf and T_comm as above.
func (x Exchange) PhaseTimes(tf, tl, tw, localTl, localTw float64) (tcomp, tcomm float64) {
	return float64(x.F) * tf, float64(x.InterBmax)*tl + float64(x.InterCmax)*tw +
		float64(x.LocalBmax)*localTl + float64(x.LocalCmax)*localTw
}

// Efficiency returns the modeled efficiency E = T_comp / (T_comp +
// T_comm) of the SMVP.
func (x Exchange) Efficiency(tf, tl, tw, localTl, localTw float64) float64 {
	tcomp, tcomm := x.PhaseTimes(tf, tl, tw, localTl, localTw)
	return tcomp / (tcomp + tcomm)
}

// LatencyBudget inverts Equation (2) for the inter-node block latency:
// the T_l at which the exchange still meets the required amortized word
// time tc, given the burst word time tw and the on-node costs. A
// non-positive result means the target is infeasible regardless of
// latency. Aggregation divides by a much smaller InterBmax, so its
// budget is correspondingly larger than the flat one — that relaxation
// is the whole point of the transform. InterBmax must be positive.
func (x Exchange) LatencyBudget(tc, tw, localTl, localTw float64) float64 {
	if x.InterBmax <= 0 {
		panic("model: latency budget needs positive Bmax")
	}
	c := float64(x.Cmax)
	rest := float64(x.InterCmax)/c*tw +
		float64(x.LocalBmax)/c*localTl + float64(x.LocalCmax)/c*localTw
	return (tc - rest) * c / float64(x.InterBmax)
}

// BetaOf computes the paper's β error bound from arbitrary per-PE word
// and block vectors:
//
//	β = 1 + min over PEs i of max{ C_max(B_max−B_i)/(C_i·B_max),
//	                               B_max(C_max−C_i)/(B_i·C_max) },
//
// the factor by which B_max·T_l + C_max·T_w can overestimate the true
// max over PEs of B_i·T_l + C_i·T_w. It is 1 when one PE attains both
// maxima and provably below 2; PEs with no traffic are skipped. The
// flat exchange evaluates it on the partition profile's C/B
// (partition.Profile.Beta delegates here); the aggregated exchange on
// the fused leg's per-PE vectors (comm.Aggregated.InterCB), where the
// leader concentration typically drags β back toward 1.
func BetaOf(c, b []int64) float64 {
	var cmax, bmax int64
	for i := range c {
		if c[i] > cmax {
			cmax = c[i]
		}
		if b[i] > bmax {
			bmax = b[i]
		}
	}
	if cmax == 0 || bmax == 0 {
		return 1
	}
	best := math.Inf(1)
	for i := range c {
		ci, bi := c[i], b[i]
		if ci == 0 || bi == 0 {
			continue
		}
		t1 := float64(cmax) * float64(bmax-bi) / (float64(ci) * float64(bmax))
		t2 := float64(bmax) * float64(cmax-ci) / (float64(bi) * float64(cmax))
		if m := math.Max(t1, t2); m < best {
			best = m
		}
	}
	if math.IsInf(best, 1) {
		return 1
	}
	return 1 + best
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, v := range xs {
		m = max(m, v)
	}
	return m
}
