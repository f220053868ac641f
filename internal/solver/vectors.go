package solver

// Vectors is one share of a CG solve's iteration vectors together with
// the sweeps over them, the only place the CG recurrences are written.
// Both backends run these sweeps: the serial one holds the whole vector
// in one set, every node owned and no shift (its operator's Apply
// already adds one); a resident operator holds one set per PE, where a
// shared node has a replica on every PE it resides on. Vectors have
// three scalars per node, Shift and Own one entry per node, and every
// sum runs in ascending index order.
type Vectors struct {
	X, R, P, B []float64
	// Z is M⁻¹R and Prec the Jacobi diagonal; without a preconditioner
	// Z aliases R and Prec is nil.
	Z, Prec []float64
	// Shift is σ·m per node, applied to the summed product K·v; Own is 1
	// for the nodes whose terms the reductions count and 0 for replicas,
	// which is how a reduction over sets counts a node once.
	Shift, Own []float64
}

// Scrub zeroes the iterate's non-finite entries, the first step of a
// restart.
func (v *Vectors) Scrub() {
	for i, xi := range v.X {
		if !isFinite(xi) {
			v.X[i] = 0
		}
	}
}

// The sweeps below are written out per node: each vector is resliced
// once to the node count, which lets the compiler drop the bounds checks
// on all but one of them, and every product that feeds an add or a
// subtract is wrapped in float64(…), which makes Go round it on its own
// instead of fusing the pair into one multiply-add where the target has
// one (arm64 does, amd64 does not). The expressions and their order are
// those of the loops the sweeps replaced, so both produce the same bits
// on every target; `make fma-check` keeps the package free of fused ops.

// Residual evaluates r = b − (y + σm·x) from y = K·x, where x is X or
// an audit's copy of it, and returns the owned share of ‖r‖² — the
// convergence certificate's sum. With rebuild set it also rebuilds the
// Krylov state from it, R = r, Z = M⁻¹r, P = Z, and returns the owned
// share of ρ = rᵀz.
func (v *Vectors) Residual(y, x []float64, rebuild bool) (rn2, rho float64) {
	shift := v.Shift
	n := 3 * len(shift)
	b, y, x, own := v.B[:n], y[:n], x[:n], v.Own[:len(shift)]
	for l, f := range shift {
		w, i := own[l], 3*l
		r0 := b[i] - (y[i] + float64(f*x[i]))
		r1 := b[i+1] - (y[i+1] + float64(f*x[i+1]))
		r2 := b[i+2] - (y[i+2] + float64(f*x[i+2]))
		rn2 += float64(w * r0 * r0)
		rn2 += float64(w * r1 * r1)
		rn2 += float64(w * r2 * r2)
		if rebuild {
			rho = v.rebuild(rho, i, w, r0, r1, r2)
		}
	}
	return rn2, rho
}

// rebuild sets the Krylov state of the node at offset i from its
// residual r0..r2 and adds the node's owned terms of rᵀz to rho.
func (v *Vectors) rebuild(rho float64, i int, w, r0, r1, r2 float64) float64 {
	v.R[i], v.R[i+1], v.R[i+2] = r0, r1, r2
	z0, z1, z2 := r0, r1, r2
	if v.Prec != nil {
		z0, z1, z2 = v.Prec[i]*r0, v.Prec[i+1]*r1, v.Prec[i+2]*r2
		v.Z[i], v.Z[i+1], v.Z[i+2] = z0, z1, z2
	}
	v.P[i], v.P[i+1], v.P[i+2] = z0, z1, z2
	rho += float64(w * r0 * z0)
	rho += float64(w * r1 * z1)
	rho += float64(w * r2 * z2)
	return rho
}

// PAP completes pᵀAp from kp, the owned share of pᵀ(K·p): it adds the
// shift's share σ·m‖p‖² node by node. The shift is applied here, not
// folded into the partial products a resident operator exchanges, where
// it would cancel badly.
func (v *Vectors) PAP(kp float64) float64 {
	shift := v.Shift
	p, own := v.P[:3*len(shift)], v.Own[:len(shift)]
	for l, f := range shift {
		i := 3 * l
		p0, p1, p2 := p[i], p[i+1], p[i+2]
		kp += float64(own[l] * f * (float64(p0*p0) + float64(p1*p1) + float64(p2*p2)))
	}
	return kp
}

// Step is the fused vector sweep of one iteration, given y = K·p: in one
// pass it applies x += α·p and r −= α·(y + σm·p), forms z = M⁻¹r, and
// accumulates the owned shares of ‖r‖² and rᵀz, each one term at a time
// — the order separate sweeps would use, so the merged sweep produces
// their bits. Without a preconditioner z is r and rᵀz is ‖r‖². The two
// loops differ only in the preconditioner.
func (v *Vectors) Step(y []float64, alpha float64) (rn2, rz float64) {
	shift := v.Shift
	n := 3 * len(shift)
	x, r, p, y, own := v.X[:n], v.R[:n], v.P[:n], y[:n], v.Own[:len(shift)]
	if v.Prec == nil {
		for l, f := range shift {
			w, i := own[l], 3*l
			p0, p1, p2 := p[i], p[i+1], p[i+2]
			x[i] += float64(alpha * p0)
			x[i+1] += float64(alpha * p1)
			x[i+2] += float64(alpha * p2)
			r0 := r[i] - float64(alpha*(y[i]+float64(f*p0)))
			r1 := r[i+1] - float64(alpha*(y[i+1]+float64(f*p1)))
			r2 := r[i+2] - float64(alpha*(y[i+2]+float64(f*p2)))
			r[i], r[i+1], r[i+2] = r0, r1, r2
			rn2 += float64(w * r0 * r0)
			rn2 += float64(w * r1 * r1)
			rn2 += float64(w * r2 * r2)
		}
		return rn2, rn2
	}
	z, prec := v.Z[:n], v.Prec[:n]
	for l, f := range shift {
		w, i := own[l], 3*l
		p0, p1, p2 := p[i], p[i+1], p[i+2]
		x[i] += float64(alpha * p0)
		x[i+1] += float64(alpha * p1)
		x[i+2] += float64(alpha * p2)
		r0 := r[i] - float64(alpha*(y[i]+float64(f*p0)))
		r1 := r[i+1] - float64(alpha*(y[i+1]+float64(f*p1)))
		r2 := r[i+2] - float64(alpha*(y[i+2]+float64(f*p2)))
		r[i], r[i+1], r[i+2] = r0, r1, r2
		z0, z1, z2 := prec[i]*r0, prec[i+1]*r1, prec[i+2]*r2
		z[i], z[i+1], z[i+2] = z0, z1, z2
		rn2 += float64(w * r0 * r0)
		rn2 += float64(w * r1 * r1)
		rn2 += float64(w * r2 * r2)
		rz += float64(w * r0 * z0)
		rz += float64(w * r1 * z1)
		rz += float64(w * r2 * z2)
	}
	return rn2, rz
}

// Direction is the search-direction update p = z + β·p.
func (v *Vectors) Direction(beta float64) {
	n := 3 * len(v.Shift)
	p, z := v.P[:n], v.Z[:n]
	for i := 0; i < n; i += 3 {
		p[i] = z[i] + float64(beta*p[i])
		p[i+1] = z[i+1] + float64(beta*p[i+1])
		p[i+2] = z[i+2] + float64(beta*p[i+2])
	}
}
