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

// Residual evaluates r = b − (y + σm·x) from y = K·x, where x is X or
// an audit's copy of it, and returns the owned share of ‖r‖² — the
// convergence certificate's sum. With rebuild set it also rebuilds the
// Krylov state from it, R = r, Z = M⁻¹r, P = Z, and returns the owned
// share of ρ = rᵀz.
func (v *Vectors) Residual(y, x []float64, rebuild bool) (rn2, rho float64) {
	for l, f := range v.Shift {
		w := v.Own[l]
		for i := 3 * l; i < 3*l+3; i++ {
			ri := v.B[i] - (y[i] + f*x[i])
			rn2 += w * ri * ri
			if !rebuild {
				continue
			}
			v.R[i] = ri
			zi := ri
			if v.Prec != nil {
				zi = v.Prec[i] * ri
				v.Z[i] = zi
			}
			v.P[i] = zi
			rho += w * ri * zi
		}
	}
	return rn2, rho
}

// PAP completes pᵀAp from kp, the owned share of pᵀ(K·p): it adds the
// shift's share σ·m‖p‖² node by node. The shift is applied here, not
// folded into the partial products a resident operator exchanges, where
// it would cancel badly.
func (v *Vectors) PAP(kp float64) float64 {
	for l, f := range v.Shift {
		p0, p1, p2 := v.P[3*l], v.P[3*l+1], v.P[3*l+2]
		kp += v.Own[l] * f * (p0*p0 + p1*p1 + p2*p2)
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
	x, r, p := v.X, v.R, v.P
	if v.Prec == nil {
		for l, f := range v.Shift {
			w := v.Own[l]
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
	z, prec := v.Z, v.Prec
	for l, f := range v.Shift {
		w := v.Own[l]
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

// Direction is the search-direction update p = z + β·p.
func (v *Vectors) Direction(beta float64) {
	for i, zi := range v.Z {
		v.P[i] = zi + beta*v.P[i]
	}
}
