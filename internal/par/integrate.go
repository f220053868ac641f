package par

import (
	"fmt"
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
// Every PE steps its nodes with fem.UpdateNodes, the update
// fem.System.Run applies, so the two integrators produce the same
// trajectories (up to the reordering of floating-point sums in the
// exchange).
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
	srcNode := fem.NearestNode(coords, cfg.Source.Location)

	// Per-PE state.
	u := make([][]float64, d.P)
	s.u = u
	v := make([][]float64, d.P)
	ku := make([][]float64, d.P)
	srcLocal := make([]int, d.P) // local index of source node, -1 if absent
	for pe := 0; pe < d.P; pe++ {
		n := len(d.Nodes[pe])
		u[pe] = make([]float64, 3*n)
		v[pe] = make([]float64, 3*n)
		ku[pe] = make([]float64, 3*n)
		srcLocal[pe] = indexOf(d.Nodes[pe], srcNode)
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

	// One body drives a whole step on the persistent PEs: local SMVP,
	// the runtime's barrier-synchronised exchange, replica update. The
	// coordinator dispatches it once per step (no goroutine spawns, no
	// per-step allocations); the force is refreshed between dispatches,
	// which are full synchronization points. The closure below is
	// created once per Run.
	rt := d.rt
	var force [3]float64
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
		var dampers [][9]float64
		if cfg.Absorbers != nil {
			dampers = s.dampers[pe]
		}
		fem.UpdateNodes(u[pe], v[pe], ku[pe], s.Mass[pe], dampers, srcLocal[pe], force, cfg.Dt, cfg.Damping)
		rt.met.observeUpdate(pe, iter, time.Since(t0))
		sp.End()
	}

	obs.GetCounter("par.distsim.steps").Add(int64(cfg.Steps))
	start := time.Now()
	var flops int64
	for step := 0; step < cfg.Steps; step++ {
		force = cfg.Source.Force(float64(step) * cfg.Dt)
		if _, err := rt.runKernel(stepBody, nil, nil); err != nil {
			return nil, err
		}
		for pe := 0; pe < d.P; pe++ {
			flops += int64(2 * d.K[pe].EquivalentNNZ())
		}

		for i, r := range rcvs {
			res.Seismograms[i][step] = fem.Magnitude(u[r.pe], int(r.local))
		}
		if step%16 == 0 || step == cfg.Steps-1 {
			for pe := 0; pe < d.P; pe++ {
				if fem.Diverged(u[pe]) {
					return nil, fmt.Errorf("par: solution diverged at step %d", step)
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
		if m := fem.MaxMagnitude(u[pe]); m > res.MaxDisplacement {
			res.MaxDisplacement = m
		}
	}
	res.SMVPSeconds = res.ComputeSeconds // the multiply phase only
	return res, nil
}
