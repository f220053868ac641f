// Package model implements the SMVP performance models of Sections 3
// and 4 of the paper: the high-level sustained-bandwidth model
// (Equation 1), the low-level block latency / burst bandwidth model
// (Equation 2), the half-bandwidth design rule, and the bisection
// bandwidth computation. All times are in seconds, all volumes in
// 64-bit words (8 bytes), and rates are returned in bytes/second so the
// report layer can print MB/s directly.
package model

import (
	"fmt"
	"math"
)

// BytesPerWord is the size of one communication word: the applications
// exchange 64-bit floating point values.
const BytesPerWord = 8

// AppProperties are the application/partitioner-side inputs to the
// models, one row of the paper's Figure 7: flops per PE, maximum
// communication words per PE, and maximum communication blocks per PE.
type AppProperties struct {
	F    int64 // flops per PE per SMVP
	Cmax int64 // max words sent+received by any PE per SMVP
	Bmax int64 // max blocks sent+received by any PE per SMVP
}

// Validate reports whether the properties can drive the models.
func (a AppProperties) Validate() error {
	if a.F <= 0 {
		return fmt.Errorf("model: F must be positive, got %d", a.F)
	}
	if a.Cmax < 0 || a.Bmax < 0 {
		return fmt.Errorf("model: Cmax/Bmax must be non-negative, got %d/%d", a.Cmax, a.Bmax)
	}
	if (a.Cmax == 0) != (a.Bmax == 0) {
		return fmt.Errorf("model: Cmax (%d) and Bmax (%d) must be zero together", a.Cmax, a.Bmax)
	}
	return nil
}

// RequiredTc solves Equation (1) for the amortized time per
// communication word T_c that achieves target efficiency E on PEs that
// sustain one flop per Tf seconds:
//
//	T_c = (F / C_max) · ((1 − E) / E) · T_f.
//
// It panics on invalid E or Tf; Cmax must be positive.
func RequiredTc(app AppProperties, E, Tf float64) float64 {
	if E <= 0 || E >= 1 {
		panic(fmt.Sprintf("model: efficiency must be in (0,1), got %g", E))
	}
	if Tf <= 0 {
		panic(fmt.Sprintf("model: Tf must be positive, got %g", Tf))
	}
	if app.Cmax <= 0 {
		panic("model: RequiredTc needs positive Cmax")
	}
	return float64(app.F) / float64(app.Cmax) * (1 - E) / E * Tf
}

// RequiredBandwidth returns the sustained per-PE bandwidth 1/T_c in
// bytes per second implied by RequiredTc (Figure 9).
func RequiredBandwidth(app AppProperties, E, Tf float64) float64 {
	return BytesPerWord / RequiredTc(app, E, Tf)
}

// AchievedTc evaluates Equation (2): the amortized time per word
// delivered by a communication system with block latency Tl and burst
// bandwidth 1/Tw on this application:
//
//	T_c = (B_max / C_max) · T_l + T_w.
func AchievedTc(app AppProperties, Tl, Tw float64) float64 {
	if app.Cmax <= 0 {
		panic("model: AchievedTc needs positive Cmax")
	}
	return float64(app.Bmax)/float64(app.Cmax)*Tl + Tw
}

// PhaseTimes returns the modeled computation and communication phase
// times for one SMVP: T_comp = F·Tf and T_comm = B_max·Tl + C_max·Tw.
func PhaseTimes(app AppProperties, Tf, Tl, Tw float64) (tcomp, tcomm float64) {
	return float64(app.F) * Tf, float64(app.Bmax)*Tl + float64(app.Cmax)*Tw
}

// Efficiency returns the modeled efficiency E = T_comp / (T_comp +
// T_comm) of the SMVP on the given machine parameters.
func Efficiency(app AppProperties, Tf, Tl, Tw float64) float64 {
	tcomp, tcomm := PhaseTimes(app, Tf, Tl, Tw)
	return tcomp / (tcomp + tcomm)
}

// LatencyBudget inverts Equation (2) for the block latency: given a
// required T_c and a burst word time Tw, the observed block latency must
// not exceed
//
//	T_l = (T_c − T_w) · C_max / B_max.
//
// A non-positive result means the target is infeasible even with zero
// latency (the burst bandwidth alone is too slow). This generates the
// diagonal tradeoff curves of Figure 10.
func LatencyBudget(app AppProperties, tc, tw float64) float64 {
	if app.Bmax <= 0 {
		panic("model: LatencyBudget needs positive Bmax")
	}
	return (tc - tw) * float64(app.Cmax) / float64(app.Bmax)
}

// HalfBandwidthPoint returns the paper's suggested design point
// (Section 4.4): choose T_l and T_w such that block latency and burst
// bandwidth each account for half of the communication phase:
//
//	B_max·T_l = C_max·T_w = T_comm/2 ⇒ T_w = T_c/2, T_l = T_c·C_max/(2·B_max).
//
// The returned HalfBW is the burst bandwidth 1/T_w in bytes per second,
// and HalfLatency is T_l in seconds (Figure 11).
func HalfBandwidthPoint(app AppProperties, E, Tf float64) (halfBW, halfLatency float64) {
	tc := RequiredTc(app, E, Tf)
	tw := tc / 2
	tl := tc * float64(app.Cmax) / (2 * float64(app.Bmax))
	return BytesPerWord / tw, tl
}

// WithFixedBlocks returns a copy of app with B_max recomputed for
// fixed-size blocks of w words (e.g. 4-word cache lines): B_max =
// C_max/w, the simplification the paper uses for shared-memory
// machines. w must be positive.
func (a AppProperties) WithFixedBlocks(w int64) AppProperties {
	if w <= 0 {
		panic(fmt.Sprintf("model: block size must be positive, got %d", w))
	}
	b := a.Cmax / w
	if b < 1 && a.Cmax > 0 {
		b = 1
	}
	return AppProperties{F: a.F, Cmax: a.Cmax, Bmax: b}
}

// BisectionBandwidth returns the sustained bisection bandwidth in bytes
// per second required when V words cross the bisection during a
// communication phase lasting C_max·T_c seconds (Section 4.2).
func BisectionBandwidth(bisectionWords, cmax int64, tc float64) float64 {
	if cmax <= 0 || tc <= 0 {
		return 0
	}
	return float64(bisectionWords) * BytesPerWord / (float64(cmax) * tc)
}

// LogP maps the paper's parameters onto the LogP model for comparison
// (Section 3.3 discusses the correspondence): o ≈ T_l (per-block
// overhead), g ≈ M_avg·T_w (gap per message at average size), L is the
// network transit latency the paper's model folds into its
// infinite-capacity network assumption, and P is the PE count.
type LogP struct {
	L float64
	O float64
	G float64
	P int
}

// ToLogP derives LogP parameters from the paper's machine and
// application parameters, taking mavg as the average message size in
// words and transit as the assumed constant network latency L.
func ToLogP(tl, tw, mavg, transit float64, p int) LogP {
	return LogP{L: transit, O: tl, G: mavg * tw, P: p}
}

// MFLOPS converts a per-flop time to MFLOPS for reporting.
func MFLOPS(tf float64) float64 { return 1e-6 / tf }

// MBps converts bytes/second to MB/s (10^6 bytes, as the paper uses).
func MBps(bytesPerSec float64) float64 { return bytesPerSec / 1e6 }

// Feasible reports whether a (Tl, Tw) pair meets the required Tc for
// the application (used to test points against Figure 10 curves).
func Feasible(app AppProperties, E, Tf, Tl, Tw float64) bool {
	return AchievedTc(app, Tl, Tw) <= RequiredTc(app, E, Tf)*(1+1e-12)
}

// EfficiencyFromTc returns the efficiency obtained when the achieved
// amortized word time is tc: E = T_comp/(T_comp + C_max·tc).
func EfficiencyFromTc(app AppProperties, Tf, tc float64) float64 {
	tcomp := float64(app.F) * Tf
	return tcomp / (tcomp + float64(app.Cmax)*tc)
}

// Check verifies the algebraic consistency of the model implementation
// for the given inputs: plugging RequiredTc back into EfficiencyFromTc
// must return E. It returns the absolute error (useful in tests).
func Check(app AppProperties, E, Tf float64) float64 {
	tc := RequiredTc(app, E, Tf)
	return math.Abs(EfficiencyFromTc(app, Tf, tc) - E)
}
