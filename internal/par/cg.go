package par

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// This file hosts conjugate gradients on the PEs. solver.CG keeps the
// control loop; Operator implements the solver's backend methods, so the
// iteration vectors r, z, p, x, the local slices of b and of the Jacobi
// diagonal, and the local mass-shift diagonal live in the PE workspaces
// for the whole solve, replicated — like the integrator's state — on
// every PE where a node resides. One dispatch runs a burst of
// iterations; inside it only scalars cross PEs, as per-PE partials in
// dotSlots that every PE sums in ascending PE order, so all PEs take
// identical decisions without a coordinator and the result does not
// depend on the exchange plan. Global vectors exist only at Begin and
// Gather. See docs/PERFORMANCE.md, "PE-resident CG".

// cgVectors is one PE's share of a resident solve. Vectors have
// 3·len(nodes) scalars, shift and own one entry per local node.
type cgVectors struct {
	p, r, x, b []float64
	// z is M⁻¹r and prec the local Jacobi diagonal; without a
	// preconditioner z aliases r and prec is nil. The buffers behind
	// them are allocated by the first preconditioned solve.
	z, prec, zBuf, precBuf []float64
	// shift is σ·m per local node; own is 1 for the nodes this PE owns
	// and 0 for replicas, which is how reductions count a node once.
	shift, own []float64
	// ckX, ckR, ckP are the rollback checkpoint, allocated by the first
	// Save.
	ckX, ckR, ckP []float64
}

type cgOp int

const (
	cgScatter cgOp = iota
	cgGather
	cgResidual
	cgTrueResidual
	cgIterate
	cgSave
	cgRestore
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
	xOnly bool

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
	if o.Shift > 0 && len(o.MassNode) != o.D.GlobalNodes {
		return fmt.Errorf("par: mass vector has %d entries, want %d", len(o.MassNode), o.D.GlobalNodes)
	}
	rt.resident.Lock()
	rt.cg = cgCall{op: cgScatter, b: b, prec: prec, x: x, r: r, p: p, shift: o.Shift, mass: o.MassNode}
	if err := rt.runCG(); err != nil {
		rt.resident.Unlock()
		return err
	}
	return nil
}

// End implements the solver's backend.
func (o Operator) End() {
	o.D.rt.cg = cgCall{}
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
func (o Operator) Residual(scrub bool) (rho, rn2 float64, err error) {
	rt := o.D.rt
	rt.cg.op, rt.cg.scrub = cgResidual, scrub
	if scrub {
		o.ownersScratch()
	}
	if err := rt.runCG(); err != nil {
		return 0, 0, err
	}
	return rt.sum(slotRho), rt.sum(slotRN2), nil
}

// ownersScratch makes sure the solve has the global vector through which
// PEs read the owners' iterate.
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

// Save implements the solver's backend.
func (o Operator) Save() error {
	o.D.rt.cg.op = cgSave
	return o.D.rt.runCG()
}

// Restore implements the solver's backend.
func (o Operator) Restore(xOnly bool) error {
	o.D.rt.cg.op, o.D.rt.cg.xOnly = cgRestore, xOnly
	return o.D.rt.runCG()
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
		if v.p == nil {
			v.p, v.r, v.x, v.b = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			v.shift, v.own = make([]float64, len(nodes)), make([]float64, len(nodes))
			for l, g := range nodes {
				if rt.owner[g] == int32(pe) {
					v.own[l] = 1
				}
			}
		}
		v.z, v.prec = v.r, nil
		if c.prec != nil {
			if v.zBuf == nil {
				v.zBuf, v.precBuf = make([]float64, n), make([]float64, n)
			}
			v.z, v.prec = v.zBuf, v.precBuf
		}
		for l, g := range nodes {
			v.shift[l] = 0
			if c.shift > 0 {
				v.shift[l] = c.shift * c.mass[g]
			}
			copy(v.b[3*l:3*l+3], c.b[3*g:3*g+3])
			copy(v.x[3*l:3*l+3], c.x[3*g:3*g+3])
			if c.prec != nil {
				copy(v.prec[3*l:3*l+3], c.prec[3*g:3*g+3])
			}
			if c.r != nil {
				copy(v.r[3*l:3*l+3], c.r[3*g:3*g+3])
				copy(v.p[3*l:3*l+3], c.p[3*g:3*g+3])
			}
		}
	case cgGather:
		rt.gather(pe, c.x, v.x)
		rt.gather(pe, c.r, v.r)
		rt.gather(pe, c.p, v.p)
	case cgSave:
		if v.ckX == nil {
			n := 3 * len(nodes)
			v.ckX, v.ckR, v.ckP = make([]float64, n), make([]float64, n), make([]float64, n)
		}
		copy(v.ckX, v.x)
		copy(v.ckR, v.r)
		copy(v.ckP, v.p)
	case cgRestore:
		copy(v.x, v.ckX)
		if !c.xOnly {
			copy(v.r, v.ckR)
			copy(v.p, v.ckP)
		}
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
	own := rt.ws[pe].cg.own
	for l, g := range rt.nodes[pe] {
		if own[l] != 0 {
			copy(dst[3*g:3*g+3], src[3*l:3*l+3])
		}
	}
}

// residual evaluates b − A·x on the PE's replicas, A = K + σ·diag(m)
// with the mass shift applied after the receive, on the summed value.
// cgTrueResidual takes x from the owners and only reduces the squared
// norm; cgResidual also rebuilds the Krylov state from it: r = b − A·x,
// z = M⁻¹r, p = z, ρ = rᵀz.
func (rt *peRuntime) residual(pe int) {
	c := &rt.cg
	ws := &rt.ws[pe]
	v := &ws.cg
	x := v.x
	if c.op == cgTrueResidual || c.scrub {
		// A corrupted exchange may have left replicas of x disagreeing;
		// the owner's value is the one the solve reports. A restart
		// re-synchronises the replicas from it (after zeroing non-finite
		// entries); an audit only reads it, into the phased SMVP's local
		// vector, which is free for the length of a dispatch.
		if c.op == cgResidual {
			for i, xi := range x {
				if math.IsNaN(xi) || math.IsInf(xi, 0) {
					x[i] = 0
				}
			}
		} else {
			x = ws.x
		}
		rt.gather(pe, c.tmp, v.x)
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
	var rn2, rho float64
	for l, f := range v.shift {
		w := v.own[l]
		for i := 3 * l; i < 3*l+3; i++ {
			ri := v.b[i] - (y[i] + f*x[i])
			rn2 += w * ri * ri
			if c.op == cgTrueResidual {
				continue
			}
			v.r[i] = ri
			zi := ri
			if v.prec != nil {
				zi = v.prec[i] * ri
				v.z[i] = zi
			}
			v.p[i] = zi
			rho += w * ri * zi
		}
	}
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
		pap := rt.compute(pe, y, v.p)
		for l, f := range v.shift {
			p0, p1, p2 := v.p[3*l], v.p[3*l+1], v.p[3*l+2]
			pap += v.own[l] * f * (p0*p0 + p1*p1 + p2*p2)
		}
		slots[slotPAP] = pap
		if !rt.exchange(pe, y) {
			return
		}
		pap = rt.sum(slotPAP)

		sp := obs.StartSpanPE("update", "par.cg.update", pe)
		start := time.Now()
		alpha := rho / pap
		rn2, rz := v.step(y, alpha)
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
			beta := rz / rho
			rho = rz
			for i, zi := range v.z {
				v.p[i] = zi + beta*v.p[i]
			}
			update += time.Since(start)
		}
		rt.met.observeUpdate(pe, ws.iter, update)
		sp.End()
		if stopped {
			return
		}
	}
}

// step is the local CG vector sweep of one iteration: x += α·p and
// r −= α·(y + σm·p), z = M⁻¹r, and the PE's owned share of ‖r‖² and
// rᵀz, every sum in ascending local index — at p = 1 the arithmetic of
// the serial sweep. The two loops differ only in the preconditioner.
func (v *cgVectors) step(y []float64, alpha float64) (rn2, rz float64) {
	x, r, p := v.x, v.r, v.p
	if v.prec == nil {
		for l, f := range v.shift {
			w := v.own[l]
			i := 3 * l
			x, r, p, y := x[i:i+3:i+3], r[i:i+3:i+3], p[i:i+3:i+3], y[i:i+3:i+3]
			for c, pc := range p {
				x[c] += alpha * pc
				rc := r[c] - alpha*(y[c]+f*pc)
				r[c] = rc
				rn2 += w * rc * rc
			}
		}
		return rn2, rn2
	}
	z, prec := v.z, v.prec
	for l, f := range v.shift {
		w := v.own[l]
		i := 3 * l
		x, r, p, y, z, prec := x[i:i+3:i+3], r[i:i+3:i+3], p[i:i+3:i+3], y[i:i+3:i+3], z[i:i+3:i+3], prec[i:i+3:i+3]
		for c, pc := range p {
			x[c] += alpha * pc
			rc := r[c] - alpha*(y[c]+f*pc)
			r[c] = rc
			rn2 += w * rc * rc
			zc := prec[c] * rc
			z[c] = zc
			rz += w * rc * zc
		}
	}
	return rn2, rz
}
