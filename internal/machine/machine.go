// Package machine models parallel machines at the level the paper
// works: a per-flop time T_f for the local SMVP, and a communication
// system characterized by block latency T_l and burst word time T_w.
// It provides the measured presets the paper quotes (Cray T3D and T3E)
// and its two hypothetical machines (100- and 200-MFLOP PEs), plus a
// discrete-event simulator of the exchange phase that validates the
// closed-form model — including an optional finite-bandwidth bisection
// channel used to demonstrate that bisection bandwidth is not the
// bottleneck.
package machine

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Params describes one machine configuration. Times are in seconds.
type Params struct {
	Name string
	Tf   float64 // sustained time per flop of the local SMVP
	Tl   float64 // block latency: per-block overhead at the PE
	Tw   float64 // burst time per word (inverse burst bandwidth)
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Tf <= 0 || p.Tl < 0 || p.Tw < 0 {
		return fmt.Errorf("machine: invalid parameters %+v", p)
	}
	return nil
}

// The paper's measured and hypothetical machines. The T3E communication
// parameters are the paper's measurements (Section 3.3); the T3D
// parameters are estimates consistent with the strided-copy throughput
// and message overheads reported for it in the paper's references.
func T3D() Params { return Params{Name: "Cray T3D", Tf: 30e-9, Tl: 60e-6, Tw: 230e-9} }

// T3E returns the paper's measured Cray T3E parameters: T_f = 14 ns
// (≈70 MFLOPS on the local SMVP), T_l = 22 µs, T_w = 55 ns.
func T3E() Params { return Params{Name: "Cray T3E", Tf: 14e-9, Tl: 22e-6, Tw: 55e-9} }

// Current100 is the paper's "current" hypothetical machine: 100-MFLOP
// PEs. Communication parameters are left at the T3E's measured values.
func Current100() Params { return Params{Name: "current-100MFLOPS", Tf: 10e-9, Tl: 22e-6, Tw: 55e-9} }

// Future200 is the paper's "future" machine: 200-MFLOP PEs with the
// communication system the paper concludes it needs — ~2 µs block
// latency and ~600 MB/s burst bandwidth (T_w ≈ 13 ns).
func Future200() Params { return Params{Name: "future-200MFLOPS", Tf: 5e-9, Tl: 2e-6, Tw: 13e-9} }

// Presets returns all built-in machines.
func Presets() []Params { return []Params{T3D(), T3E(), Current100(), Future200()} }

// PresetByName returns the preset with the given name.
func PresetByName(name string) (Params, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("machine: unknown preset %q", name)
}

// ExactCommTime evaluates the exact (per-PE) closed-form communication
// phase time for a schedule: max over PEs of B_i·T_l + C_i·T_w. The
// paper's model approximates this by B_max·T_l + C_max·T_w, which can
// overestimate by at most the factor β.
func ExactCommTime(s *comm.Schedule, p Params) float64 {
	b := s.BlocksPerPE()
	c := s.WordsPerPE()
	best := 0.0
	for i := 0; i < s.P; i++ {
		if t := float64(b[i])*p.Tl + float64(c[i])*p.Tw; t > best {
			best = t
		}
	}
	return best
}

// ModelCommTime evaluates the paper's approximate communication phase
// time B_max·T_l + C_max·T_w for a schedule.
func ModelCommTime(s *comm.Schedule, p Params) float64 {
	b := s.BlocksPerPE()
	c := s.WordsPerPE()
	var bmax, cmax int64
	for i := 0; i < s.P; i++ {
		if b[i] > bmax {
			bmax = b[i]
		}
		if c[i] > cmax {
			cmax = c[i]
		}
	}
	return float64(bmax)*p.Tl + float64(cmax)*p.Tw
}

// NetworkConfig configures the discrete-event exchange simulation.
type NetworkConfig struct {
	// Transit is the constant network transit latency added to every
	// block (the paper assumes a constant-latency, infinite-capacity
	// network; this is that constant).
	Transit float64
	// BisectionBytesPerSec, when positive, serializes all blocks whose
	// endpoints lie on opposite sides of the canonical bisection
	// (PE < P/2 versus PE ≥ P/2) through a shared channel with this
	// bandwidth. Zero means infinite bisection capacity.
	BisectionBytesPerSec float64
}

// SimResult reports the outcome of a discrete-event exchange simulation.
type SimResult struct {
	// PETime[i] is the time PE i finished its sends and had processed
	// all its received blocks.
	PETime []float64
	// CommTime is the phase time: max over PEs.
	CommTime float64
	// BisectionBusy is the total time the bisection channel was busy
	// (0 when the channel is infinite).
	BisectionBusy float64
}

// Simulate runs a deterministic discrete-event simulation of one
// exchange phase. Each PE's network interface is a single serial
// resource (matching the paper's accounting, where a PE's B_i and C_i
// count both directions): it first performs its sends back to back,
// each occupying the NI for T_l + words·T_w, then processes incoming
// blocks in arrival order at the same cost, idling when none has
// arrived yet. Block arrival time is the sender-side completion plus
// Transit, plus any queueing delay in the bisection channel.
func Simulate(s *comm.Schedule, p Params, net NetworkConfig) SimResult {
	sp := obs.StartSpan(obs.TrackDriver, "simulate", "machine.simulate")
	defer sp.End()
	type arrival struct {
		at    float64
		words int64
	}
	arrivals := make([][]arrival, s.P)
	sendDone := make([]float64, s.P)

	// Sender side: NIs serialize their sends starting at time zero.
	type crossing struct {
		idx   int // index into arrivals[to]
		to    int32
		end   float64 // sender-side completion
		words int64
	}
	var crossings []crossing
	half := s.P / 2
	for i := 0; i < s.P; i++ {
		busy := 0.0
		for _, m := range s.Out[i] {
			busy += p.Tl + float64(m.Words)*p.Tw
			a := arrival{at: busy + net.Transit, words: m.Words}
			arrivals[m.To] = append(arrivals[m.To], a)
			if net.BisectionBytesPerSec > 0 && (int(m.From) < half) != (int(m.To) < half) {
				crossings = append(crossings, crossing{
					idx:   len(arrivals[m.To]) - 1,
					to:    m.To,
					end:   busy,
					words: m.Words,
				})
			}
		}
		sendDone[i] = busy
	}

	// Bisection channel: serialize crossing blocks in sender-completion
	// order.
	res := SimResult{PETime: make([]float64, s.P)}
	if net.BisectionBytesPerSec > 0 {
		sort.Slice(crossings, func(a, b int) bool {
			if crossings[a].end != crossings[b].end {
				return crossings[a].end < crossings[b].end
			}
			if crossings[a].to != crossings[b].to {
				return crossings[a].to < crossings[b].to
			}
			return crossings[a].idx < crossings[b].idx
		})
		chanFree := 0.0
		for _, c := range crossings {
			start := c.end
			if chanFree > start {
				start = chanFree
			}
			dur := float64(c.words) * 8 / net.BisectionBytesPerSec
			chanFree = start + dur
			res.BisectionBusy += dur
			arrivals[c.to][c.idx].at = chanFree + net.Transit
		}
	}

	// Receiver side: after finishing sends, process arrivals in order.
	for i := 0; i < s.P; i++ {
		as := arrivals[i]
		sort.Slice(as, func(a, b int) bool { return as[a].at < as[b].at })
		busy := sendDone[i]
		for _, a := range as {
			if a.at > busy {
				busy = a.at // idle until the block arrives
			}
			busy += p.Tl + float64(a.words)*p.Tw
		}
		res.PETime[i] = busy
		if busy > res.CommTime {
			res.CommTime = busy
		}
	}
	obs.GetCounter("machine.sim.runs").Add(1)
	obs.GetGauge("machine.sim.comm_seconds").Set(res.CommTime)
	return res
}

// OnNode returns the default intra-node parameters of the two-level
// exchange (comm.Aggregate): a memcpy-like staging copy between PEs of
// one node — roughly 20× cheaper per block than the T3E's network
// interface and several times its burst bandwidth, consistent with
// shared-memory transfer costs. Tf is the T3E's (unused by the
// intra-node legs, but kept valid for Validate).
func OnNode() Params { return Params{Name: "on-node", Tf: 14e-9, Tl: 1e-6, Tw: 10e-9} }

// FusedLeg prices the fused inter-node leg of a two-level plan: its
// phase time.
type FusedLeg func(a *comm.Aggregated) (float64, error)

// Fused prices the fused leg with Simulate at p through net.
func Fused(p Params, net NetworkConfig) FusedLeg {
	return func(a *comm.Aggregated) (float64, error) {
		if err := p.Validate(); err != nil {
			return 0, err
		}
		return Simulate(a.Internode, p, net).CommTime, nil
	}
}

// Phases reports a replay of a two-level exchange: each phase's time
// and their sum, CommTime.
type Phases struct {
	Gather, Internode, Scatter, CommTime float64
}

// Replay is the one replay of a two-level plan, flat (one PE per node)
// included. It runs three barrier-separated phases, so their times add:
// the Local payload messages merged with the Gather copy leg, then the
// fused leader-to-leader leg, then the Scatter leg. The on-node phases
// are replayed by Simulate at the local parameters (shared memory or an
// on-node interconnect); only the fused leg pays the machine's block
// latency, as fused prices it — Fused, or network.Fused over a
// contended torus of nodes. With one PE per node the on-node legs are
// empty and the fused leg is the flat schedule, so the replay is the
// flat exchange's, bit for bit.
func Replay(a *comm.Aggregated, local Params, fused FusedLeg) (Phases, error) {
	if local.Tl < 0 || local.Tw < 0 {
		return Phases{}, fmt.Errorf("machine: negative local parameters %+v", local)
	}
	intra, err := comm.Merge(a.Local, a.Gather)
	if err != nil {
		return Phases{}, err
	}
	inter, err := fused(a)
	if err != nil {
		return Phases{}, err
	}
	ph := Phases{
		Gather:    Simulate(intra, local, NetworkConfig{}).CommTime,
		Internode: inter,
		Scatter:   Simulate(a.Scatter, local, NetworkConfig{}).CommTime,
	}
	ph.CommTime = ph.Gather + ph.Internode + ph.Scatter
	return ph, nil
}
