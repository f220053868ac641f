// Package machine models parallel machines at the level the paper
// works: a per-flop time T_f for the local SMVP, and a communication
// system characterized by block latency T_l and burst word time T_w.
// It provides the measured presets the paper quotes (Cray T3D and T3E)
// and its two hypothetical machines (100- and 200-MFLOP PEs), plus the
// one discrete-event simulator of the exchange phase that validates the
// closed-form model. The network it crosses is a Topology: the paper's
// constant-latency Crossbar (with an optional finite-bandwidth bisection
// channel), or a contended torus (package network).
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

// A Topology is the network an exchange crosses. It names its links by
// dense ids, gives each a bandwidth and each block a route through them;
// every link a block crosses adds one hop of latency.
type Topology interface {
	// Links returns, for an exchange among p endpoints, the bandwidth of
	// every link in bytes per second, indexed by link id (0 means
	// infinite: no queueing), and the latency of one hop. It errors if
	// the topology does not join p endpoints.
	Links(p int) (bytesPerSec []float64, hop float64, err error)
	// AppendRoute appends to route the ids of the links a block from
	// endpoint a to endpoint b of p crosses, in order.
	AppendRoute(route []int32, p, a, b int) []int32
}

// Crossbar is the paper's constant-latency, infinite-capacity network,
// with an optional bisection channel to show that bisection bandwidth is
// not the bottleneck. Every block takes one hop of latency Transit. A
// block whose endpoints lie on opposite sides of the canonical bisection
// (endpoint < p/2 versus ≥ p/2) takes link 1, the one shared channel,
// which queues it when BisectionBytesPerSec is positive; every other
// block takes link 0, which never queues.
type Crossbar struct {
	Transit              float64
	BisectionBytesPerSec float64
}

// Links implements Topology: a crossbar joins any number of endpoints.
func (c Crossbar) Links(int) ([]float64, float64, error) {
	return []float64{0, c.BisectionBytesPerSec}, c.Transit, nil
}

// AppendRoute implements Topology.
func (Crossbar) AppendRoute(route []int32, p, a, b int) []int32 {
	if (a < p/2) != (b < p/2) {
		return append(route, 1)
	}
	return append(route, 0)
}

// Result reports a simulated exchange phase.
type Result struct {
	// PETime[i] is the time endpoint i finished its sends and had
	// processed all its received blocks.
	PETime []float64
	// CommTime is the phase time: max over endpoints.
	CommTime float64
	// MaxLinkBusy is the busiest link's total occupancy, and AvgLinkBusy
	// the mean over the links that were busy (both 0 when no link queues).
	MaxLinkBusy, AvgLinkBusy float64
	// MaxHops is the longest route any block took.
	MaxHops int
}

// Simulate runs a deterministic discrete-event simulation of one
// exchange phase over topo. Each endpoint's network interface is a
// single serial resource (matching the paper's accounting, where a PE's
// B_i and C_i count both directions): it first performs its sends back
// to back, each occupying the NI for T_l + words·T_w, then processes
// incoming blocks in arrival order at the same cost, idling when none
// has arrived yet. In between, blocks are taken in order of (injection
// time, sender, send index); each crosses its route link by link,
// queueing behind earlier traffic at every link of finite bandwidth
// (store-and-forward at link granularity, a conservative model — wormhole
// routing would only lower contention) and paying the hop latency at
// each.
func Simulate(s *comm.Schedule, p Params, topo Topology) (Result, error) {
	sp := obs.StartSpan(obs.TrackDriver, "simulate", "machine.simulate")
	defer sp.End()
	bw, hop, err := topo.Links(s.P)
	if err != nil {
		return Result{}, err
	}
	type flight struct {
		inject float64
		from   int32
		seq    int
		to     int32
		words  int64
	}
	var flights []flight
	sendDone := make([]float64, s.P)
	for i := 0; i < s.P; i++ {
		busy := 0.0
		for seq, m := range s.Out[i] {
			busy += p.Tl + float64(m.Words)*p.Tw
			flights = append(flights, flight{
				inject: busy, from: m.From, seq: seq, to: m.To, words: m.Words,
			})
		}
		sendDone[i] = busy
	}
	sort.Slice(flights, func(a, b int) bool {
		if flights[a].inject != flights[b].inject {
			return flights[a].inject < flights[b].inject
		}
		if flights[a].from != flights[b].from {
			return flights[a].from < flights[b].from
		}
		return flights[a].seq < flights[b].seq
	})

	linkFree := make([]float64, len(bw))
	linkBusy := make([]float64, len(bw))
	res := Result{PETime: make([]float64, s.P)}
	type arrival struct {
		at    float64
		words int64
	}
	arrivals := make([][]arrival, s.P)
	var route []int32
	for _, f := range flights {
		route = topo.AppendRoute(route[:0], s.P, int(f.from), int(f.to))
		res.MaxHops = max(res.MaxHops, len(route))
		at := f.inject
		for _, l := range route {
			if bw[l] > 0 {
				start := max(at, linkFree[l])
				dur := float64(f.words) * 8 / bw[l]
				linkFree[l] = start + dur
				linkBusy[l] += dur
				at = start + dur + hop
			} else {
				at += hop
			}
		}
		arrivals[f.to] = append(arrivals[f.to], arrival{at: at, words: f.words})
	}
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
		res.CommTime = max(res.CommTime, busy)
	}
	var used int
	var sum float64
	for _, b := range linkBusy {
		if b > 0 {
			used++
			sum += b
			res.MaxLinkBusy = max(res.MaxLinkBusy, b)
		}
	}
	if used > 0 {
		res.AvgLinkBusy = sum / float64(used)
	}
	obs.GetCounter("machine.sim.runs").Add(1)
	obs.GetGauge("machine.sim.comm_seconds").Set(res.CommTime)
	return res, nil
}

// OnNode returns the default intra-node parameters of the two-level
// exchange (comm.Aggregate): a memcpy-like staging copy between PEs of
// one node — roughly 20× cheaper per block than the T3E's network
// interface and several times its burst bandwidth, consistent with
// shared-memory transfer costs. Tf is the T3E's (unused by the
// intra-node legs, but kept valid for Validate).
func OnNode() Params { return Params{Name: "on-node", Tf: 14e-9, Tl: 1e-6, Tw: 10e-9} }

// Phases reports a replay of a two-level exchange: each phase's time
// and their sum, CommTime.
type Phases struct {
	Gather, Internode, Scatter, CommTime float64
}

// Replay is the one replay of a two-level plan, flat (one PE per node)
// included. It runs three barrier-separated phases, so their times add:
// the Local payload messages merged with the Gather copy leg, then the
// fused leader-to-leader leg, then the Scatter leg. The on-node phases
// run at the local parameters (shared memory or an on-node
// interconnect) on a plain Crossbar. Only the fused leg pays the
// machine's parameters, fused: it runs as the by-node schedule
// (Aggregated.InternodeByNode) over topo(a.NumNodes) — a Crossbar, or a
// contended torus of nodes. With one PE per node the on-node legs are
// empty and the fused leg is the flat schedule, so the replay is the
// flat exchange's, bit for bit.
func Replay(a *comm.Aggregated, local, fused Params, topo func(nodes int) Topology) (Phases, error) {
	if local.Tl < 0 || local.Tw < 0 {
		return Phases{}, fmt.Errorf("machine: negative local parameters %+v", local)
	}
	if err := fused.Validate(); err != nil {
		return Phases{}, err
	}
	intra, err := comm.Merge(a.Local, a.Gather)
	if err != nil {
		return Phases{}, err
	}
	inter, err := Simulate(a.InternodeByNode(), fused, topo(a.NumNodes))
	if err != nil {
		return Phases{}, err
	}
	// A crossbar joins any number of endpoints: these cannot fail.
	gather, _ := Simulate(intra, local, Crossbar{})
	scatter, _ := Simulate(a.Scatter, local, Crossbar{})
	ph := Phases{Gather: gather.CommTime, Internode: inter.CommTime, Scatter: scatter.CommTime}
	ph.CommTime = ph.Gather + ph.Internode + ph.Scatter
	return ph, nil
}
