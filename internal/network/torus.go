// Package network models a 3D torus interconnect — the topology of the
// Cray T3D/T3E the paper measured — with finite per-link bandwidth and
// dimension-ordered routing, as a machine.Topology for the one exchange
// simulator, machine.Simulate. The paper's models assume the network
// has infinite capacity and constant latency, citing an empirical
// argument in the expanded technical report; this package recreates
// that argument: running the SMVP exchange over a contended torus and
// showing that, at realistic link bandwidths, contention adds little to
// the PE-side costs that dominate.
package network

import (
	"fmt"

	"repro/internal/machine"
)

// Torus is a DX×DY×DZ 3D torus with one PE per node. Each directed link
// carries LinkBytesPerSec (zero means infinite: no contention, pure hop
// latency) and each hop adds the router traversal time HopLatency. It is
// a machine.Topology through its dimension-ordered routes.
type Torus struct {
	DX, DY, DZ      int
	LinkBytesPerSec float64
	HopLatency      float64
}

var _ machine.Topology = Torus{}

// NewTorus factors p into the most cube-like torus shape with
// DX·DY·DZ = p, with infinite links and no hop latency. It errors if p
// is not positive (every p > 0 factors since 1s are allowed; a prime p
// degenerates to a ring).
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
	for _, extent := range [3]int{t.DX, t.DY, t.DZ} {
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

// Links implements machine.Topology: NumLinks links of LinkBytesPerSec.
func (t Torus) Links(p int) ([]float64, float64, error) {
	if t.PEs() != p {
		return nil, 0, fmt.Errorf("network: torus has %d PEs, schedule %d", t.PEs(), p)
	}
	bw := make([]float64, t.NumLinks())
	for i := range bw {
		bw[i] = t.LinkBytesPerSec
	}
	return bw, t.HopLatency, nil
}

// AppendRoute implements machine.Topology with Route. Link ids are
// dense: the links of each dimension of extent > 1, in dimension order,
// minus direction then plus, node-major within.
func (t Torus) AppendRoute(route []int32, _, a, b int) []int32 {
	ext := [3]int{t.DX, t.DY, t.DZ}
	for _, l := range t.Route(a, b) {
		k := 0 // dimensions with links before l's
		for _, n := range ext[:l.Dim] {
			if n > 1 {
				k++
			}
		}
		route = append(route, int32((2*k+int(l.Dir))*t.PEs()+l.Node))
	}
	return route
}
