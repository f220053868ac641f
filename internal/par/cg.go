package par

import (
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/solver"
)

// This file hosts conjugate gradients on the PEs. solver.CG keeps the
// control loop and solver.Vectors the vector sweeps; Operator implements
// the solver's backend methods, so the iteration vectors r, z, p, x, the
// local slices of b and of the Jacobi diagonal, and the local mass-shift
// diagonal live in the PE workspaces for the whole solve, replicated —
// like the integrator's state — on every PE where a node resides. What
// this file adds to the sweeps is their distribution: the exchange that
// completes each K·v, and the reductions. One dispatch runs a burst of
// iterations; inside it only scalars cross PEs, as per-PE partials in
// dotSlots that every PE sums in ascending PE order, so all PEs take
// identical decisions without a coordinator and the result does not
// depend on the exchange plan. Global vectors exist only at Begin and
// Gather. See docs/PERFORMANCE.md, "PE-resident CG".

// cgVectors is one PE's share of a resident solve: the local nodes'
// vectors, Own 1 for the nodes this PE owns and 0 for replicas.
type cgVectors struct {
	solver.Vectors
	// The buffers behind Z and Prec, allocated by the first
	// preconditioned solve.
	zBuf, precBuf []float64
}

type cgOp int

const (
	cgScatter cgOp = iota
	cgGather
	cgResidual
	cgTrueResidual
	cgIterate
)

// cgCall is the argument block of the in-flight CG kernel. Inputs are
// written by the coordinator before the dispatch; its, pap, rn2 and
// rhoNew are written back by PE 0 (every PE computes the same values).
type cgCall struct {
	op cgOp
	// Global vectors of a scatter or gather; nil entries are skipped.
	b, prec, x, r, p []float64
	shift            float64
	mass             []float64
	// scrub makes cgResidual zero the iterate's non-finite entries and
	// re-synchronise its replicas from the owners through tmp first;
	// cgTrueResidual reads the owners' values through it.
	scrub bool
	tmp   []float64

	rho  float64
	n    int
	stop func(pap, rn2, rho float64) bool

	its              int
	pap, rn2, rhoNew float64
}

// Slot offsets within a PE's dotSlots line. pᵀAp travels with the
// exchange crossing and ‖r‖², rᵀz with the second, so a PE that is
// already posting the next iteration's pᵀAp cannot overwrite a value a
// slower peer is still summing.
const (
	slotPAP = iota
	slotRN2
	slotRho
)

// sum reduces one slot across PEs in ascending PE order.
func (rt *peRuntime) sum(slot int) (s float64) {
	for pe := 0; pe < rt.p; pe++ {
		s += rt.dotSlots[pe*dotStride+slot]
	}
	return s
}

// runCG dispatches one CG kernel. The SMVP-bearing kernels advance
// fault-plan time by the SMVPs they execute: one here for the residual
// kernels, one per iteration inside a burst (by PE 0, see iterate).
func (rt *peRuntime) runCG() error {
	rt.dispatch.Lock()
	defer rt.dispatch.Unlock()
	if err := rt.usable(); err != nil {
		return err
	}
	switch rt.cg.op {
	case cgResidual, cgTrueResidual:
		rt.met.smvps.Add(1)
		if rt.fi != nil {
			rt.iter = rt.fi.BeginKernel()
		}
	case cgIterate:
		if rt.fi != nil {
			rt.iter = rt.fi.Iter()
		}
	}
	return rt.launch(rt.cgBody)
}

// Begin implements the solver's backend: it claims the Dist for one
// resident solve (solves sharing a Dist run one at a time) and scatters
// b, the optional Jacobi diagonal, x and — on resume — r and p to every
// PE where each node resides. Scattering owner values reproduces the
// replicas a checkpointed solve held, because replicas are bit-equal.
func (o Operator) Begin(b, prec, x, r, p []float64) error {
	rt := o.D.rt
	if err := o.checkMass(); err != nil {
		return err
	}
	rt.resident.Lock()
	rt.cg = cgCall{op: cgScatter, b: b, prec: prec, x: x, r: r, p: p, shift: o.Shift, mass: o.MassNode, tmp: rt.cg.tmp}
	if err := rt.runCG(); err != nil {
		rt.resident.Unlock()
		return err
	}
	return nil
}

// End implements the solver's backend.
func (o Operator) End() {
	o.D.rt.cg = cgCall{tmp: o.D.rt.cg.tmp}
	o.D.rt.resident.Unlock()
}

// Gather implements the solver's backend: owners write their nodes
// straight into the destinations, in parallel.
func (o Operator) Gather(x, r, p []float64) error {
	rt := o.D.rt
	rt.cg.op, rt.cg.x, rt.cg.r, rt.cg.p = cgGather, x, r, p
	return rt.runCG()
}

// Residual implements the solver's backend.
func (o Operator) Residual(scrub bool) (rho float64, err error) {
	rt := o.D.rt
	rt.cg.op, rt.cg.scrub = cgResidual, scrub
	if scrub {
		o.ownersScratch()
	}
	if err := rt.runCG(); err != nil {
		return 0, err
	}
	return rt.sum(slotRho), nil
}

// ownersScratch makes sure the solve has the global vector through which
// PEs read the owners' iterate. It outlives the solve: every converging
// solve takes its certificate through it, so a Dist allocates it once.
func (o Operator) ownersScratch() {
	if c := &o.D.rt.cg; c.tmp == nil {
		c.tmp = make([]float64, 3*o.D.GlobalNodes)
	}
}

// TrueResidual implements the solver's backend. The iterate it audits is
// the one Gather reports, the owners' values: a corrupted partial sum
// that lands on a replica no reduction counts leaves that replica of x
// apart from its owner for the rest of the solve, and a residual taken
// on the replicas would agree with the recursive one while the reported
// answer satisfies neither.
func (o Operator) TrueResidual() (float64, error) {
	rt := o.D.rt
	rt.cg.op = cgTrueResidual
	o.ownersScratch()
	if err := rt.runCG(); err != nil {
		return 0, err
	}
	return math.Sqrt(rt.sum(slotRN2)), nil
}

// Iterate implements the solver's backend: one dispatch, up to n
// iterations, two barrier crossings each (three under an exchange plan
// whose leaders gather).
func (o Operator) Iterate(rho float64, n int, stop func(pap, rn2, rho float64) bool) (its int, pap, rn2, rhoNew float64, err error) {
	rt := o.D.rt
	c := &rt.cg
	c.op, c.rho, c.n, c.stop, c.its = cgIterate, rho, n, stop, 0
	err = rt.runCG()
	return c.its, c.pap, c.rn2, c.rhoNew, err
}

// cgPE is the per-PE body of every CG kernel.
func (rt *peRuntime) cgPE(pe int) {
	c := &rt.cg
	ws := &rt.ws[pe]
	v := &ws.cg
	nodes := rt.nodes[pe]
	switch c.op {
	case cgScatter:
		n := 3 * len(nodes)
		if v.P == nil {
			v.P, v.R, v.X, v.B = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			v.Shift, v.Own = make([]float64, len(nodes)), make([]float64, len(nodes))
			for l, g := range nodes {
				if rt.owner[g] == int32(pe) {
					v.Own[l] = 1
				}
			}
		}
		v.Z, v.Prec = v.R, nil
		if c.prec != nil {
			if v.zBuf == nil {
				v.zBuf, v.precBuf = make([]float64, n), make([]float64, n)
			}
			v.Z, v.Prec = v.zBuf, v.precBuf
		}
		for l, g := range nodes {
			v.Shift[l] = 0
			if c.shift > 0 {
				v.Shift[l] = c.shift * c.mass[g]
			}
			copy(v.B[3*l:3*l+3], c.b[3*g:3*g+3])
			copy(v.X[3*l:3*l+3], c.x[3*g:3*g+3])
			if c.prec != nil {
				copy(v.Prec[3*l:3*l+3], c.prec[3*g:3*g+3])
			}
			if c.r != nil {
				copy(v.R[3*l:3*l+3], c.r[3*g:3*g+3])
				copy(v.P[3*l:3*l+3], c.p[3*g:3*g+3])
			}
		}
	case cgGather:
		rt.gather(pe, c.x, v.X)
		rt.gather(pe, c.r, v.R)
		rt.gather(pe, c.p, v.P)
	case cgResidual, cgTrueResidual:
		rt.residual(pe)
	case cgIterate:
		rt.iterate(pe)
	}
}

// gather writes the locally owned nodes of src into the global dst.
func (rt *peRuntime) gather(pe int, dst, src []float64) {
	if dst == nil {
		return
	}
	own := rt.ws[pe].cg.Own
	for l, g := range rt.nodes[pe] {
		if own[l] != 0 {
			copy(dst[3*g:3*g+3], src[3*l:3*l+3])
		}
	}
}

// residual evaluates b − A·x on the PE's replicas, A = K + σ·diag(m)
// with the mass shift applied after the receive, on the summed value.
// cgTrueResidual takes x from the owners and only reduces the squared
// norm; cgResidual also rebuilds the Krylov state from it (see
// solver.Vectors.Residual).
func (rt *peRuntime) residual(pe int) {
	c := &rt.cg
	ws := &rt.ws[pe]
	v := &ws.cg
	x := v.X
	if c.op == cgTrueResidual || c.scrub {
		// A corrupted exchange may have left replicas of x disagreeing;
		// the owner's value is the one the solve reports. A restart
		// re-synchronises the replicas from it (after zeroing non-finite
		// entries); an audit only reads it, into the phased SMVP's local
		// vector, which is free for the length of a dispatch.
		if c.op == cgResidual {
			v.Scrub()
		} else {
			x = ws.x
		}
		rt.gather(pe, c.tmp, v.X)
		if !rt.bar.await() {
			return
		}
		for l, g := range rt.nodes[pe] {
			copy(x[3*l:3*l+3], c.tmp[3*g:3*g+3])
		}
	}
	y := ws.y
	rt.compute(pe, y, x)
	if !rt.exchange(pe, y) {
		return
	}
	rn2, rho := v.Residual(y, x, c.op == cgResidual)
	rt.dotSlots[pe*dotStride+slotRN2] = rn2
	rt.dotSlots[pe*dotStride+slotRho] = rho
}

// iterate is one PE's share of a burst of CG iterations. Per iteration:
// the local fused multiply yields K_pe·p and p_peᵀK_pe·p_pe, whose sum
// over PEs plus σ·Σ_owned m‖p‖² is pᵀAp — known before any partial sum
// has moved, so the exchange's barrier doubles as its reduction. After
// the receive the PE finishes Ap on its replicas (mass shift on the
// summed value, not folded into the posted partials, which would cancel
// badly), steps x and r, forms z, and posts its owned share of ‖r‖² and
// rᵀz; the second crossing reduces those. stop sees the same three
// scalars on every PE, so all PEs leave the burst at the same point.
func (rt *peRuntime) iterate(pe int) {
	c := &rt.cg
	ws := &rt.ws[pe]
	v := &ws.cg
	fi := rt.fi
	y, slots := ws.y, rt.dotSlots[pe*dotStride:]
	rho := c.rho
	for it := 1; it <= c.n; it++ {
		if fi != nil {
			// Fault-plan time counts SMVPs: PE 0 advances the injector,
			// and since nothing else can during a dispatch, every PE knows
			// the new index without being told.
			ws.iter = rt.iter + int64(it)
			if pe == 0 {
				fi.BeginKernel()
			}
		}
		if pe == 0 {
			rt.met.smvps.Add(1)
		}
		pap := v.PAP(rt.compute(pe, y, v.P))
		slots[slotPAP] = pap
		if !rt.exchange(pe, y) {
			return
		}
		pap = rt.sum(slotPAP)

		sp := obs.StartSpanPE("update", "par.cg.update", pe)
		start := time.Now()
		alpha := rho / pap
		rn2, rz := v.Step(y, alpha)
		slots[slotRN2], slots[slotRho] = rn2, rz
		update := time.Since(start)
		if !rt.bar.await() {
			return
		}
		rn2, rz = rt.sum(slotRN2), rt.sum(slotRho)
		if pe == 0 {
			c.its, c.pap, c.rn2, c.rhoNew = it, pap, rn2, rz
		}
		stopped := c.stop(pap, rn2, rz)
		if !stopped {
			start = time.Now()
			v.Direction(rz / rho)
			rho = rz
			update += time.Since(start)
		}
		rt.met.observeUpdate(pe, ws.iter, update)
		sp.End()
		if stopped {
			return
		}
	}
}
