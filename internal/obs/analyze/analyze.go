// Package analyze turns raw per-PE telemetry into the paper's
// diagnostic quantities. From a registry snapshot window (typically
// cur.Sub(prev) around a batch of SMVP or integration iterations) it
// computes the load-imbalance factor λ = max/mean per-PE compute time,
// identifies stragglers, recovers the achieved T_f and per-word
// exchange cost, and measures drift between the observed exchange time
// and the Equation (2) prediction of the active exchange plan, flat or
// node-aware (model.Exchange). Drift is the sensor: a partition
// whose measured exchange diverges from its model is mis-balanced or
// contended, which is exactly the signal elastic rebalancing needs.
package analyze

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Metric names the persistent-PE runtime records and this package
// consumes. The runtime observes one value per PE per kernel
// invocation, so each accumulator's per-PE Count is the iteration
// count and Sum the accumulated phase nanoseconds.
const (
	MetricCompute  = "par.phase.compute.ns"
	MetricExchange = "par.phase.exchange.ns"
	MetricUpdate   = "par.phase.update.ns"
)

// Window is a per-PE view of accumulated phase time over some span of
// iterations: index = PE, values = nanoseconds.
type Window struct {
	Iters      int64   // kernel invocations covered (max per-PE count)
	ComputeNS  []int64 // per-PE compute-phase nanoseconds
	ExchangeNS []int64 // per-PE exchange-phase nanoseconds
	UpdateNS   []int64 // per-PE update-phase nanoseconds (integration only)
}

// FromSnapshot extracts a Window from a snapshot (pass a delta from
// Snapshot.Sub to isolate an iteration window; pass a full snapshot
// for run-so-far totals). ok is false when the snapshot carries no
// phase accumulators — telemetry disabled or the runtime never ran.
func FromSnapshot(s *obs.Snapshot) (w Window, ok bool) {
	if s == nil {
		return w, false
	}
	compute, found := s.PEAccums[MetricCompute]
	if !found {
		return w, false
	}
	w.ComputeNS = compute.Sum
	for _, n := range compute.Count {
		if n > w.Iters {
			w.Iters = n
		}
	}
	if ex, found := s.PEAccums[MetricExchange]; found {
		w.ExchangeNS = ex.Sum
	}
	if up, found := s.PEAccums[MetricUpdate]; found {
		w.UpdateNS = up.Sum
	}
	return w, w.Iters > 0
}

// FromSnapshots is FromSnapshot over the delta cur−prev.
func FromSnapshots(cur, prev *obs.Snapshot) (Window, bool) {
	if cur == nil {
		return Window{}, false
	}
	if prev == nil {
		return FromSnapshot(cur)
	}
	return FromSnapshot(cur.Sub(prev))
}

// Imbalance is the paper's load-balance view of one phase: λ = max/mean
// over per-PE accumulated time. λ = 1 is perfect balance; efficiency
// lost to imbalance is (λ−1)/λ of the phase.
type Imbalance struct {
	Lambda     float64       // max / mean per-PE time (1 when empty)
	Mean, Max  time.Duration // per-PE accumulated phase time
	Straggler  int           // PE holding Max; −1 when empty
	Stragglers []int         // PEs above the straggler threshold × mean
}

// StragglerFactor is the default threshold: a PE is a straggler when
// its accumulated phase time exceeds this multiple of the mean.
const StragglerFactor = 1.2

// ImbalanceOf computes the imbalance of one per-PE phase vector.
func ImbalanceOf(perPE []int64) Imbalance {
	im := Imbalance{Lambda: 1, Straggler: -1}
	if len(perPE) == 0 {
		return im
	}
	var sum, max int64
	argmax := 0
	for pe, v := range perPE {
		sum += v
		if v > max {
			max, argmax = v, pe
		}
	}
	if sum == 0 {
		return im
	}
	mean := float64(sum) / float64(len(perPE))
	im.Lambda = float64(max) / mean
	im.Mean = time.Duration(mean)
	im.Max = time.Duration(max)
	im.Straggler = argmax
	for pe, v := range perPE {
		if float64(v) > StragglerFactor*mean {
			im.Stragglers = append(im.Stragglers, pe)
		}
	}
	return im
}

// Achieved is the measured machine-parameter decomposition for a
// window: what T_f and per-word exchange cost the run actually got,
// per kernel iteration, from the slowest PE's point of view (the
// barrier makes the max PE the one everyone waits for).
type Achieved struct {
	ComputePerIter  float64 // seconds of max-PE compute per iteration
	ExchangePerIter float64 // seconds of max-PE exchange per iteration
	Tf              float64 // achieved per-flop time: ComputePerIter / F
	Tc              float64 // achieved per-word exchange cost: ExchangePerIter / Cmax
}

// AchievedOf recovers the achieved parameters from a window using the
// partition's static properties (F flops per PE per SMVP, Cmax words).
func AchievedOf(w Window, app model.AppProperties) Achieved {
	var a Achieved
	if w.Iters == 0 {
		return a
	}
	iters := float64(w.Iters)
	a.ComputePerIter = float64(maxOf(w.ComputeNS)) / iters * 1e-9
	a.ExchangePerIter = float64(maxOf(w.ExchangeNS)) / iters * 1e-9
	if app.F > 0 {
		a.Tf = a.ComputePerIter / float64(app.F)
	}
	if app.Cmax > 0 {
		a.Tc = a.ExchangePerIter / float64(app.Cmax)
	}
	return a
}

// Drift compares the measured per-word exchange cost against the
// Equation (2) prediction for the active schedule. Rel is the signed
// relative drift (measured−predicted)/predicted: positive means the
// exchange ran slower than the model says it should — contention,
// imbalance, or a schedule the model does not capture.
type Drift struct {
	MeasuredTc  float64 // seconds per payload word, from telemetry
	PredictedTc float64 // seconds per payload word, from Eq.(2)
	Rel         float64 // (measured − predicted) / predicted
}

// DriftOf measures drift against Equation (2) for exchange x when an
// inter-node block costs tl + words·tw and an on-node one localTl +
// words·localTw (zeros for a flat plan).
func DriftOf(w Window, x model.Exchange, tl, tw, localTl, localTw float64) Drift {
	d := Drift{
		MeasuredTc:  AchievedOf(w, model.AppProperties{F: x.F, Cmax: x.Cmax}).Tc,
		PredictedTc: x.Tc(tl, tw, localTl, localTw),
	}
	if d.PredictedTc > 0 {
		d.Rel = (d.MeasuredTc - d.PredictedTc) / d.PredictedTc
	}
	return d
}

// Report bundles the full analysis of one window.
type Report struct {
	Window   Window
	Compute  Imbalance // λ over per-PE compute time
	Exchange Imbalance // λ over per-PE exchange time
	Achieved Achieved
	Drift    Drift
	Schedule string // "flat" or "aggregated", from the exchange plan
}

// Analyze runs the full analysis of a window against exchange x, with
// DriftOf's costs.
func Analyze(w Window, x model.Exchange, tl, tw, localTl, localTw float64) Report {
	schedule := "aggregated"
	if x.Flat() {
		schedule = "flat"
	}
	return Report{
		Window:   w,
		Compute:  ImbalanceOf(w.ComputeNS),
		Exchange: ImbalanceOf(w.ExchangeNS),
		Achieved: AchievedOf(w, model.AppProperties{F: x.F, Cmax: x.Cmax}),
		Drift:    DriftOf(w, x, tl, tw, localTl, localTw),
		Schedule: schedule,
	}
}

// Publish mirrors the report's headline numbers into gauges in the
// default registry, so the HTTP surface (and the future rebalancer)
// sees the latest analysis without recomputing it.
func (r Report) Publish() {
	obs.GetGauge("analyze.compute.lambda").Set(r.Compute.Lambda)
	obs.GetGauge("analyze.exchange.lambda").Set(r.Exchange.Lambda)
	obs.GetGauge("analyze.achieved.tf").Set(r.Achieved.Tf)
	obs.GetGauge("analyze.achieved.tc").Set(r.Achieved.Tc)
	obs.GetGauge("analyze.drift.rel").Set(r.Drift.Rel)
}

// String renders a one-line operator summary.
func (r Report) String() string {
	return fmt.Sprintf(
		"%s schedule, %d iters: λ_comp=%.3f λ_exch=%.3f straggler=PE%d Tf=%.3gs Tc=%.3gs drift=%+.1f%%",
		r.Schedule, r.Window.Iters, r.Compute.Lambda, r.Exchange.Lambda,
		r.Compute.Straggler, r.Achieved.Tf, r.Achieved.Tc, 100*r.Drift.Rel)
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}
