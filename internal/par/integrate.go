package par

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/obs"
)

// DistSim is the distributed Quake application: the explicit
// central-difference integrator running on goroutine PEs, with exactly
// one stiffness SMVP (local multiply + shared-node exchange) per time
// step — the structure whose communication demands the whole paper
// characterizes.
//
// Replica consistency is the key invariant: displacement, velocity, and
// nodal mass are replicated on every PE where a node resides, the
// exchange sums every replica's K·u in the same canonical order, and
// every PE applies the identical update to its replicas — so all
// replicas of a node hold the same bits, and no communication beyond the
// SMVP exchange is ever needed.
type DistSim struct {
	D *Dist
	// Mass[pe][l] is the globally-summed lumped mass of local node l.
	Mass [][]float64
	// dampers[pe] holds the per-local-node 3×3 absorber blocks, nil
	// when absorbers are not configured.
	dampers [][][9]float64
	// u[pe] is the displacement state of the last Run, kept for the
	// replica-consistency test.
	u [][]float64
}

// NewDistSim assembles the distributed mass (summing partial lumped
// masses across shared nodes with one setup exchange) and optionally
// scatters boundary dampers to local numbering.
func NewDistSim(d *Dist, massNode []float64, absorbers *fem.AbsorbingDampers) (*DistSim, error) {
	if len(massNode) != d.GlobalNodes {
		return nil, fmt.Errorf("par: mass vector has %d entries, want %d", len(massNode), d.GlobalNodes)
	}
	s := &DistSim{D: d, Mass: make([][]float64, d.P)}
	for pe := 0; pe < d.P; pe++ {
		loc := make([]float64, len(d.Nodes[pe]))
		for l, g := range d.Nodes[pe] {
			if massNode[g] <= 0 {
				return nil, fmt.Errorf("par: node %d has non-positive mass", g)
			}
			loc[l] = massNode[g]
		}
		s.Mass[pe] = loc
	}
	if absorbers != nil {
		if len(absorbers.Blocks) != d.GlobalNodes {
			return nil, fmt.Errorf("par: absorber blocks cover %d nodes, want %d",
				len(absorbers.Blocks), d.GlobalNodes)
		}
		s.dampers = make([][][9]float64, d.P)
		for pe := 0; pe < d.P; pe++ {
			blk := make([][9]float64, len(d.Nodes[pe]))
			for l, g := range d.Nodes[pe] {
				blk[l] = absorbers.Blocks[g]
			}
			s.dampers[pe] = blk
		}
	}
	return s, nil
}

// DistSimResult extends the sequential result with the distributed
// phase timing accumulated over all steps.
type DistSimResult struct {
	fem.SimResult
	// ComputeSeconds and ExchangeSeconds are the maxima over PEs of the
	// per-PE accumulated phase times.
	ComputeSeconds  float64
	ExchangeSeconds float64
}

// Run advances the distributed system cfg.Steps steps. Receivers are
// global node ids; their seismograms are recorded by the owning PE.
// The scheme, source handling, and stability behavior match
// fem.System.Run step for step, so the two integrators produce the same
// trajectories (up to the reordering of floating-point sums).
func (s *DistSim) Run(coords []geom.Vec3, cfg fem.SimConfig) (*DistSimResult, error) {
	d := s.D
	if cfg.Dt <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("par: Dt and Steps must be positive")
	}
	if cfg.Absorbers != nil && s.dampers == nil {
		return nil, fmt.Errorf("par: absorbers passed to Run but not to NewDistSim")
	}
	for _, r := range cfg.Receivers {
		if r < 0 || int(r) >= d.GlobalNodes {
			return nil, fmt.Errorf("par: receiver node %d out of range", r)
		}
	}
	// Locate the source node globally (same rule as fem.System.Run:
	// nearest mesh node).
	srcNode := int32(0)
	bestD := math.Inf(1)
	for i, c := range coords {
		if dist := c.Dist(cfg.Source.Location); dist < bestD {
			bestD = dist
			srcNode = int32(i)
		}
	}
	dir := cfg.Source.Direction.Normalize()
	if dir == (geom.Vec3{}) {
		dir = geom.V(0, 0, 1)
	}

	// Per-PE state.
	u := make([][]float64, d.P)
	s.u = u
	v := make([][]float64, d.P)
	ku := make([][]float64, d.P)
	srcLocal := make([]int32, d.P) // local index of source node, -1 if absent
	for pe := 0; pe < d.P; pe++ {
		n := len(d.Nodes[pe])
		u[pe] = make([]float64, 3*n)
		v[pe] = make([]float64, 3*n)
		ku[pe] = make([]float64, 3*n)
		srcLocal[pe] = -1
		if l := indexOf(d.Nodes[pe], srcNode); l >= 0 {
			srcLocal[pe] = int32(l)
		}
	}
	// Receiver bookkeeping: (pe, local) of the owner.
	type rcv struct {
		pe, local int32
	}
	rcvs := make([]rcv, len(cfg.Receivers))
	for i, g := range cfg.Receivers {
		pe := d.Owner[g]
		rcvs[i] = rcv{pe: pe, local: int32(indexOf(d.Nodes[pe], g))}
	}

	res := &DistSimResult{}
	res.Steps = cfg.Steps
	res.Seismograms = make([][]float64, len(cfg.Receivers))
	for i := range res.Seismograms {
		res.Seismograms[i] = make([]float64, cfg.Steps)
	}
	computeAcc := make([]time.Duration, d.P)
	exchangeAcc := make([]time.Duration, d.P)
	updateAcc := make([]time.Duration, d.P)

	// One body drives a whole step on the persistent PEs: local SMVP,
	// the runtime's barrier-synchronised exchange, replica update. The
	// coordinator dispatches it once per step (no goroutine spawns, no
	// per-step allocations); fx/fy/fz are refreshed between dispatches,
	// which are full synchronization points. The closure below is
	// created once per Run.
	rt := d.rt
	var fx, fy, fz float64
	stepBody := func(pe int) {
		iter := rt.ws[pe].iter
		rt.compute(pe, ku[pe], u[pe])
		computeAcc[pe] += rt.tm.Compute[pe]
		if !rt.exchange(pe, ku[pe]) {
			return
		}
		exchangeAcc[pe] += rt.tm.Comm[pe]

		// Update phase: identical on every replica; touches only this
		// PE's u/v/ku, so no barrier is needed after the receive.
		sp := obs.StartSpanPE("update", "par.step.update", pe)
		t0 := time.Now()
		nloc := len(d.Nodes[pe])
		for i := 0; i < nloc; i++ {
			invM := 1 / s.Mass[pe][i]
			var rhs [3]float64
			for dd := 0; dd < 3; dd++ {
				k := 3*i + dd
				f := -ku[pe][k]
				if srcLocal[pe] == int32(i) {
					switch dd {
					case 0:
						f += fx
					case 1:
						f += fy
					default:
						f += fz
					}
				}
				rhs[dd] = v[pe][k] + cfg.Dt*(invM*f-cfg.Damping*v[pe][k])
			}
			if cfg.Absorbers != nil {
				blk := &s.dampers[pe][i]
				if blk[0] != 0 || blk[4] != 0 || blk[8] != 0 {
					var a [9]float64
					sc := cfg.Dt * invM
					for p := 0; p < 9; p++ {
						a[p] = sc * blk[p]
					}
					a[0] += 1
					a[4] += 1
					a[8] += 1
					rhs = solve3(&a, rhs)
				}
			}
			for dd := 0; dd < 3; dd++ {
				k := 3*i + dd
				v[pe][k] = rhs[dd]
				u[pe][k] += cfg.Dt * v[pe][k]
			}
		}
		du := time.Since(t0)
		updateAcc[pe] += du
		rt.met.observeUpdate(pe, iter, du)
		sp.End()
	}

	obs.GetCounter("par.distsim.steps").Add(int64(cfg.Steps))
	start := time.Now()
	var flops int64
	for step := 0; step < cfg.Steps; step++ {
		t := float64(step) * cfg.Dt
		amp := cfg.Source.Amplitude * fem.Ricker(t, cfg.Source.PeakFreq, cfg.Source.Delay)
		fx, fy, fz = amp*dir.X, amp*dir.Y, amp*dir.Z

		if _, err := rt.runKernel(stepBody, nil, nil); err != nil {
			return nil, err
		}
		for pe := 0; pe < d.P; pe++ {
			flops += int64(2 * d.K[pe].EquivalentNNZ())
		}

		for i, r := range rcvs {
			k := 3 * int(r.local)
			ul := u[r.pe]
			res.Seismograms[i][step] = math.Sqrt(ul[k]*ul[k] + ul[k+1]*ul[k+1] + ul[k+2]*ul[k+2])
		}
		if step%16 == 0 || step == cfg.Steps-1 {
			for pe := 0; pe < d.P; pe++ {
				for i := 0; i < len(u[pe]); i += 7 {
					if math.IsNaN(u[pe][i]) || math.Abs(u[pe][i]) > 1e12 {
						return nil, fmt.Errorf("par: solution diverged at step %d", step)
					}
				}
			}
		}
	}
	res.TotalSeconds = time.Since(start).Seconds()
	res.FlopsSMVP = flops
	for pe := 0; pe < d.P; pe++ {
		if c := computeAcc[pe].Seconds(); c > res.ComputeSeconds {
			res.ComputeSeconds = c
		}
		if e := exchangeAcc[pe].Seconds(); e > res.ExchangeSeconds {
			res.ExchangeSeconds = e
		}
	}
	res.SMVPSeconds = res.ComputeSeconds // the multiply phase only
	for pe := 0; pe < d.P; pe++ {
		for i := 0; i < len(u[pe]); i += 3 {
			m := math.Sqrt(u[pe][i]*u[pe][i] + u[pe][i+1]*u[pe][i+1] + u[pe][i+2]*u[pe][i+2])
			if m > res.MaxDisplacement {
				res.MaxDisplacement = m
			}
		}
	}
	return res, nil
}

// solve3 mirrors fem's 3×3 Cramer solve for the implicit damper.
func solve3(a *[9]float64, b [3]float64) [3]float64 {
	det := a[0]*(a[4]*a[8]-a[5]*a[7]) -
		a[1]*(a[3]*a[8]-a[5]*a[6]) +
		a[2]*(a[3]*a[7]-a[4]*a[6])
	inv := 1 / det
	return [3]float64{
		inv * (b[0]*(a[4]*a[8]-a[5]*a[7]) - a[1]*(b[1]*a[8]-a[5]*b[2]) + a[2]*(b[1]*a[7]-a[4]*b[2])),
		inv * (a[0]*(b[1]*a[8]-a[5]*b[2]) - b[0]*(a[3]*a[8]-a[5]*a[6]) + a[2]*(a[3]*b[2]-b[1]*a[6])),
		inv * (a[0]*(a[4]*b[2]-b[1]*a[7]) - a[1]*(a[3]*b[2]-b[1]*a[6]) + b[0]*(a[3]*a[7]-a[4]*a[6])),
	}
}
