package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/sparse"
)

func buildSystem(t testing.TB) *fem.System {
	t.Helper()
	cfg := octree.Config{Origin: geom.V(0, 0, 0), CubeSize: 1, Nx: 1, Ny: 1, Nz: 1, MaxDepth: 3}
	h := func(p geom.Vec3) float64 { return math.Max(0.2, 0.5*p.Dist(geom.V(0.5, 0.5, 0))) }
	tr, err := octree.Build(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.FromTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fem.Assemble(m, fixtureMaterial())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func fixtureMaterial() *material.Model {
	mat := material.SanFernando()
	mat.BasinCenter = geom.V(0.5, 0.5, 0)
	mat.BasinSemi = geom.V(0.4, 0.4, 0.3)
	return mat
}

// TestFusedUpdateBitIdentical pins the merged vector sweep, Vectors.Step
// as the serial backend runs it (every node owned, no shift), against
// the separate sweeps it replaced: x and r updates, norm²,
// preconditioner application, and rᵀz, each accumulated in ascending
// index order.
func TestFusedUpdateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 999
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	p, ap, prec := vec(), vec(), vec()
	const alpha = 0.37
	for _, pc := range [][]float64{nil, prec} {
		x, r := vec(), vec()
		wx, wr, wz := append([]float64(nil), x...), append([]float64(nil), r...), make([]float64, n)
		for i := range wx {
			wx[i] += alpha * p[i]
			wr[i] -= alpha * ap[i]
		}
		wantRn2 := dot(wr, wr)
		if pc == nil {
			copy(wz, wr)
		} else {
			for i := range wr {
				wz[i] = pc[i] * wr[i]
			}
		}
		wantRz := dot(wr, wz)

		z := make([]float64, n)
		own := make([]float64, n/3)
		for i := range own {
			own[i] = 1
		}
		v := Vectors{X: x, R: r, Z: z, P: p, Prec: pc, Shift: make([]float64, n/3), Own: own}
		if pc == nil {
			v.Z = r
		}
		rn2, rz := v.Step(ap, alpha)
		if pc == nil {
			copy(z, r)
		}
		if math.Float64bits(rn2) != math.Float64bits(wantRn2) || math.Float64bits(rz) != math.Float64bits(wantRz) {
			t.Fatalf("prec=%v: reductions (%x, %x), want (%x, %x)", pc != nil, rn2, rz, wantRn2, wantRz)
		}
		for i := range x {
			if x[i] != wx[i] || r[i] != wr[i] || z[i] != wz[i] {
				t.Fatalf("prec=%v: vectors differ at %d", pc != nil, i)
			}
		}
	}
}

func shifted(sys *fem.System) Shifted {
	return Shifted{K: sys.K, MassNode: sys.MassNode, Sigma: 10}
}

func TestCGSolvesShiftedSystem(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	n := a.Dim()
	rng := rand.New(rand.NewSource(4))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.Apply(b, want)

	x := make([]float64, n)
	res, err := CG(a, b, x, Config{MaxIter: 4 * n, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %d iters, residual %g", res.Iterations, res.Residual)
	}
	// Verify the actual residual, not just the reported one.
	ax := make([]float64, n)
	a.Apply(ax, x)
	var num, den float64
	for i := range b {
		num += (b[i] - ax[i]) * (b[i] - ax[i])
		den += b[i] * b[i]
	}
	if math.Sqrt(num/den) > 1e-8 {
		t.Errorf("true residual %g", math.Sqrt(num/den))
	}
	// One per iteration, one for the initial residual, one for the
	// convergence certificate.
	if res.SMVPs != res.Iterations+2 {
		t.Errorf("SMVPs = %d, iterations = %d", res.SMVPs, res.Iterations)
	}
	if res.DotProducts < 3*res.Iterations {
		t.Errorf("DotProducts = %d for %d iterations", res.DotProducts, res.Iterations)
	}
}

func TestJacobiPreconditioningHelps(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	n := a.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.37)
	}
	plain := make([]float64, n)
	resPlain, err := CG(a, b, plain, Config{MaxIter: 10 * n, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	diag := a.Diagonal()
	inv := make([]float64, n)
	for i, d := range diag {
		if d <= 0 {
			t.Fatalf("non-positive diagonal %g at %d", d, i)
		}
		inv[i] = 1 / d
	}
	pre := make([]float64, n)
	resPre, err := CG(a, b, pre, Config{MaxIter: 10 * n, Tol: 1e-8, Precondition: inv})
	if err != nil {
		t.Fatal(err)
	}
	if !resPlain.Converged || !resPre.Converged {
		t.Fatalf("convergence: plain %v, jacobi %v", resPlain.Converged, resPre.Converged)
	}
	// The basin/rock stiffness contrast makes the system ill-conditioned
	// enough that Jacobi should reduce iterations.
	if resPre.Iterations >= resPlain.Iterations {
		t.Errorf("jacobi %d iters >= plain %d", resPre.Iterations, resPlain.Iterations)
	}
	// Both yield the same solution.
	for i := range plain {
		if math.Abs(plain[i]-pre[i]) > 1e-5*(1+math.Abs(plain[i])) {
			t.Fatalf("solutions differ at %d: %g vs %g", i, plain[i], pre[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	n := a.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 // nonzero guess must be reset
	}
	res, err := CG(a, make([]float64, n), x, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero RHS not converged")
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, v)
		}
	}
}

func TestCGErrors(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	n := a.Dim()
	if _, err := CG(a, make([]float64, 3), make([]float64, n), Config{}); err == nil {
		t.Error("short b accepted")
	}
	if _, err := CG(a, make([]float64, n), make([]float64, n),
		Config{Precondition: make([]float64, 2)}); err == nil {
		t.Error("short preconditioner accepted")
	}
	if _, err := CG(scalarOp{}, []float64{1, 1, 1, 1}, make([]float64, 4), Config{}); err == nil {
		t.Error("an operator of 4 scalars, not 3 per node, accepted")
	}
}

// scalarOp is the identity on 4 scalars: an operator that does not have
// 3 scalars per node.
type scalarOp struct{}

func (scalarOp) Apply(y, x []float64) error { copy(y, x); return nil }
func (scalarOp) Dim() int                   { return 4 }

func TestCGRejectsIndefinite(t *testing.T) {
	// A 1-block matrix with a negative diagonal entry is indefinite.
	k := sparse.NewBCSRStructure(1, nil)
	blk := [9]float64{-1, 0, 0, 0, -1, 0, 0, 0, -1}
	k.AddBlock(0, 0, &blk)
	a := Shifted{K: k}
	b := []float64{1, 1, 1}
	x := make([]float64, 3)
	if _, err := CG(a, b, x, Config{MaxIter: 10}); err == nil {
		t.Error("indefinite operator accepted")
	}
}

// TestShiftedWithoutMass: Shifted{K: k} applies K itself, bit for bit
// (its Diagonal, K's block diagonal, is checked by par's
// TestEveryDoorChecksTheMassVector).
func TestShiftedWithoutMass(t *testing.T) {
	sys := buildSystem(t)
	op := Shifted{K: sys.K}
	if op.Dim() != 3*sys.K.N {
		t.Errorf("Dim = %d", op.Dim())
	}
	x := make([]float64, op.Dim())
	for i := range x {
		x[i] = float64(i % 3)
	}
	y1 := make([]float64, op.Dim())
	y2 := make([]float64, op.Dim())
	if err := op.Apply(y1, x); err != nil {
		t.Fatal(err)
	}
	sys.K.MulVec(y2, x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("operator disagrees with matrix")
		}
	}
}

func TestShiftedDiagonal(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	d := a.Diagonal()
	// Spot-check: applying A to a unit vector recovers the diagonal.
	n := a.Dim()
	for _, idx := range []int{0, 7, n - 1} {
		e := make([]float64, n)
		e[idx] = 1
		y := make([]float64, n)
		a.Apply(y, e)
		if math.Abs(y[idx]-d[idx]) > 1e-9*(1+math.Abs(d[idx])) {
			t.Errorf("diagonal[%d] = %g, apply gives %g", idx, d[idx], y[idx])
		}
	}
}

// TestSerialCGAllocsFlat: a serial solve with a Workspace allocates the
// same at 5 iterations as at 40, so the sweeps allocate nothing per
// iteration.
func TestSerialCGAllocsFlat(t *testing.T) {
	sys := buildSystem(t)
	a := shifted(sys)
	n := a.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.37)
	}
	x := make([]float64, n)
	ws := NewWorkspace(n)
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			clear(x)
			// A tolerance no solve reaches: every run takes all its
			// iterations.
			if _, err := CG(a, b, x, Config{MaxIter: iters, Tol: 1e-300, Workspace: ws}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(5), allocs(40)
	t.Logf("%.1f allocs at 5 iterations, %.1f at 40", short, long)
	if long != short {
		t.Errorf("serial CG: %.1f allocs at 5 iterations, %.1f at 40", short, long)
	}
}
