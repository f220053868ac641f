package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refVectors carries the sweeps as they were written before they became
// straight-line per-node code, kept verbatim as the reference the
// rewrite must reproduce bit for bit.
type refVectors Vectors

func (v *refVectors) Residual(y, x []float64, rebuild bool) (rn2, rho float64) {
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

func (v *refVectors) PAP(kp float64) float64 {
	for l, f := range v.Shift {
		p0, p1, p2 := v.P[3*l], v.P[3*l+1], v.P[3*l+2]
		kp += v.Own[l] * f * (p0*p0 + p1*p1 + p2*p2)
	}
	return kp
}

func (v *refVectors) Step(y []float64, alpha float64) (rn2, rz float64) {
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

func (v *refVectors) Direction(beta float64) {
	for i, zi := range v.Z {
		v.P[i] = zi + beta*v.P[i]
	}
}

// TestSweepsBitIdentical drives Residual (plain and rebuilding, on X and
// on an audit's copy), PAP, Step and Direction against refVectors on
// random sets of 1 to 40 nodes whose entries include NaN, ±Inf and −0,
// with replicas (Own 0), without and with a shift, without and with a
// preconditioner. Every output vector and every returned sum must be
// bit-equal (a NaN only NaN).
func TestSweepsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	entry := func() float64 {
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = entry()
		}
		return v
	}
	// build returns two independent copies of one random set.
	build := func(nodes int, shift, prec bool) (*Vectors, *refVectors) {
		n := 3 * nodes
		v := Vectors{X: vec(n), R: vec(n), P: vec(n), B: vec(n), Shift: make([]float64, nodes), Own: make([]float64, nodes)}
		for l := range v.Own {
			if rng.Intn(3) != 0 {
				v.Own[l] = 1
			}
			if shift {
				v.Shift[l] = 20 * rng.Float64()
			}
		}
		v.Z = v.R
		if prec {
			v.Z, v.Prec = vec(n), vec(n)
		}
		w := Vectors{
			X: clone(v.X), R: clone(v.R), P: clone(v.P), B: clone(v.B),
			Shift: clone(v.Shift), Own: clone(v.Own), Prec: clone(v.Prec),
		}
		w.Z = w.R
		if prec {
			w.Z = clone(v.Z)
		}
		return &v, (*refVectors)(&w)
	}
	// Bit-equal, except that any NaN matches any NaN: the Go spec leaves
	// NaN payloads open, and amd64 returns the first operand's payload
	// when both operands of an add are NaN, with operand order the
	// register allocator's choice, so the same source may turn an input
	// NaN and a generated one (0·Inf) into either.
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	check := func(t *testing.T, what string, got *Vectors, want *refVectors) {
		t.Helper()
		for _, c := range []struct {
			name string
			a, b []float64
		}{{"X", got.X, want.X}, {"R", got.R, want.R}, {"P", got.P, want.P}, {"Z", got.Z, want.Z}} {
			for i := range c.a {
				if !same(c.a[i], c.b[i]) {
					t.Fatalf("%s: %s[%d] = %x, reference %x", what, c.name, i, c.a[i], c.b[i])
				}
			}
		}
	}
	for nodes := 1; nodes <= 40; nodes++ {
		for _, shift := range []bool{false, true} {
			for _, prec := range []bool{false, true} {
				cases := []struct {
					name string
					run  func(v *Vectors, r *refVectors) (got, want [2]float64)
				}{
					{"Residual", func(v *Vectors, r *refVectors) (got, want [2]float64) {
						y := vec(3 * nodes)
						got[0], got[1] = v.Residual(y, v.X, false)
						want[0], want[1] = r.Residual(y, r.X, false)
						return got, want
					}},
					{"Residual audit", func(v *Vectors, r *refVectors) (got, want [2]float64) {
						y, x := vec(3*nodes), vec(3*nodes)
						got[0], got[1] = v.Residual(y, x, false)
						want[0], want[1] = r.Residual(y, x, false)
						return got, want
					}},
					{"Residual rebuild", func(v *Vectors, r *refVectors) (got, want [2]float64) {
						y := vec(3 * nodes)
						got[0], got[1] = v.Residual(y, v.X, true)
						want[0], want[1] = r.Residual(y, r.X, true)
						return got, want
					}},
					{"PAP", func(v *Vectors, r *refVectors) (got, want [2]float64) {
						kp := entry()
						return [2]float64{v.PAP(kp)}, [2]float64{r.PAP(kp)}
					}},
					{"Step", func(v *Vectors, r *refVectors) (got, want [2]float64) {
						y, alpha := vec(3*nodes), entry()
						got[0], got[1] = v.Step(y, alpha)
						want[0], want[1] = r.Step(y, alpha)
						return got, want
					}},
					{"Direction", func(v *Vectors, r *refVectors) (got, want [2]float64) {
						beta := entry()
						v.Direction(beta)
						r.Direction(beta)
						return got, want
					}},
				}
				for _, c := range cases {
					v, r := build(nodes, shift, prec)
					got, want := c.run(v, r)
					what := fmt.Sprintf("%s on %d nodes (shift %v, prec %v)", c.name, nodes, shift, prec)
					if !same(got[0], want[0]) || !same(got[1], want[1]) {
						t.Fatalf("%s: sums (%x, %x), reference (%x, %x)", what, got[0], got[1], want[0], want[1])
					}
					check(t, what, v, r)
				}
			}
		}
	}
}

func clone(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}
