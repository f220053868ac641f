// Package network simulates a 3D torus interconnect — the topology of
// the Cray T3D/T3E the paper measured — with finite per-link bandwidth
// and dimension-ordered routing. The paper's models assume the network
// has infinite capacity and constant latency, citing an empirical
// argument in the expanded technical report; this package recreates
// that argument: running the SMVP exchange over a contended torus and
// showing that, at realistic link bandwidths, contention adds little to
// the PE-side costs that dominate.
package network

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/machine"
)

// Torus is a DX×DY×DZ 3D torus with one PE per node.
type Torus struct {
	DX, DY, DZ int
}

// NewTorus factors p into the most cube-like torus shape with
// DX·DY·DZ = p. It errors if p has no 3-factor decomposition (p must
// be a positive integer; every p works since 1s are allowed, but very
// prime p degenerates to a ring).
func NewTorus(p int) (Torus, error) {
	if p <= 0 {
		return Torus{}, fmt.Errorf("network: torus needs positive PE count, got %d", p)
	}
	best := Torus{DX: 1, DY: 1, DZ: p}
	bestScore := p - 1 // spread of the degenerate ring
	for dx := 1; dx*dx*dx <= p; dx++ {
		if p%dx != 0 {
			continue
		}
		rest := p / dx
		for dy := dx; dy*dy <= rest; dy++ {
			if rest%dy != 0 {
				continue
			}
			dz := rest / dy
			if score := dz - dx; score < bestScore {
				bestScore = score
				best = Torus{DX: dx, DY: dy, DZ: dz}
			}
		}
	}
	return best, nil
}

// PEs returns the number of nodes in the torus.
func (t Torus) PEs() int { return t.DX * t.DY * t.DZ }

// Coord maps a PE id to torus coordinates (x fastest).
func (t Torus) Coord(pe int) (x, y, z int) {
	x = pe % t.DX
	y = (pe / t.DX) % t.DY
	z = pe / (t.DX * t.DY)
	return x, y, z
}

// ID maps torus coordinates to a PE id.
func (t Torus) ID(x, y, z int) int { return x + t.DX*(y+t.DY*z) }

// Link identifies a directed physical channel: the node it leaves,
// the dimension (0..2), and direction (0 = minus, 1 = plus).
type Link struct {
	Node int
	Dim  int8
	Dir  int8
}

// NumLinks returns the number of directed links (6 per node, except
// degenerate dimensions of extent 1, which have none).
func (t Torus) NumLinks() int {
	n := 0
	for dim, extent := range [3]int{t.DX, t.DY, t.DZ} {
		_ = dim
		if extent > 1 {
			n += 2 * t.PEs()
		}
	}
	return n
}

// Route returns the dimension-ordered (X, then Y, then Z) path from PE
// a to PE b as the sequence of directed links traversed, taking the
// shorter way around each ring.
func (t Torus) Route(a, b int) []Link {
	ax, ay, az := t.Coord(a)
	bx, by, bz := t.Coord(b)
	var path []Link
	cur := [3]int{ax, ay, az}
	dst := [3]int{bx, by, bz}
	ext := [3]int{t.DX, t.DY, t.DZ}
	for dim := 0; dim < 3; dim++ {
		n := ext[dim]
		if n == 1 {
			continue
		}
		fwd := ((dst[dim] - cur[dim]) + n) % n
		bwd := n - fwd
		step, dir := 1, int8(1)
		dist := fwd
		if bwd < fwd || (bwd == fwd && dim%2 == 1) {
			step, dir, dist = -1, 0, bwd
		}
		for k := 0; k < dist; k++ {
			var c [3]int = cur
			node := t.ID(c[0], c[1], c[2])
			path = append(path, Link{Node: node, Dim: int8(dim), Dir: dir})
			cur[dim] = ((cur[dim]+step)%n + n) % n
		}
	}
	return path
}

// Hops returns the dimension-ordered hop count between two PEs.
func (t Torus) Hops(a, b int) int { return len(t.Route(a, b)) }

// Config sets the physical parameters of the torus channels.
type Config struct {
	// LinkBytesPerSec is the bandwidth of each directed link; zero
	// means infinite (no contention, pure hop latency).
	LinkBytesPerSec float64
	// HopLatency is the router traversal time per hop.
	HopLatency float64
}

// Result reports a torus exchange simulation.
type Result struct {
	CommTime float64
	PETime   []float64
	// MaxLinkBusy is the busiest single link's total occupancy, and
	// AvgLinkBusy the mean over links that carried traffic.
	MaxLinkBusy float64
	AvgLinkBusy float64
	// MaxHops is the longest route used by any message.
	MaxHops int
}

// Simulate runs the exchange schedule over the torus. Sender network
// interfaces serialize their blocks exactly as in machine.Simulate (the
// per-block cost T_l + words·T_w); each block then traverses its
// dimension-ordered path, queueing at every link behind earlier
// traffic (store-and-forward at link granularity, a conservative model
// — wormhole routing would only lower contention); receivers process
// arrivals in order at the same NI cost. Blocks are processed in
// deterministic order.
func Simulate(s *comm.Schedule, p machine.Params, t Torus, cfg Config) (Result, error) {
	if t.PEs() != s.P {
		return Result{}, fmt.Errorf("network: torus has %d PEs, schedule %d", t.PEs(), s.P)
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

	linkFree := make(map[Link]float64)
	linkBusy := make(map[Link]float64)
	res := Result{PETime: make([]float64, s.P)}
	type arrival struct {
		at    float64
		words int64
	}
	arrivals := make([][]arrival, s.P)
	for _, f := range flights {
		path := t.Route(int(f.from), int(f.to))
		if len(path) > res.MaxHops {
			res.MaxHops = len(path)
		}
		at := f.inject
		for _, l := range path {
			if cfg.LinkBytesPerSec > 0 {
				start := at
				if free := linkFree[l]; free > start {
					start = free
				}
				dur := float64(f.words) * 8 / cfg.LinkBytesPerSec
				linkFree[l] = start + dur
				linkBusy[l] += dur
				at = start + dur + cfg.HopLatency
			} else {
				at += cfg.HopLatency
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
				busy = a.at
			}
			busy += p.Tl + float64(a.words)*p.Tw
		}
		res.PETime[i] = busy
		if busy > res.CommTime {
			res.CommTime = busy
		}
	}
	if n := len(linkBusy); n > 0 {
		var sum float64
		for _, b := range linkBusy {
			sum += b
			if b > res.MaxLinkBusy {
				res.MaxLinkBusy = b
			}
		}
		res.AvgLinkBusy = sum / float64(n)
	}
	return res, nil
}

// Fused prices the fused leg of a two-level plan for machine.Replay.
// Only the fused leader-to-leader blocks enter the interconnect, so the
// torus is one of NODES, NewTorus(a.NumNodes), carrying the by-node
// fused schedule (Aggregated.InternodeByNode) through Simulate at p.
// With one PE per node that is the PE torus and the flat schedule.
func Fused(p machine.Params, cfg Config) machine.FusedLeg {
	return func(a *comm.Aggregated) (float64, error) {
		t, err := NewTorus(a.NumNodes)
		if err != nil {
			return 0, err
		}
		res, err := Simulate(a.InternodeByNode(), p, t, cfg)
		return res.CommTime, err
	}
}
