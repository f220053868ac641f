package regress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/partition"
	rec "repro/internal/recover"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// The differential harness: the equivalences the PE-resident CG rests
// on, driven from a seeded generator of small graded meshes instead of
// being pinned on sf10/sf5 at a few widths.
//
//	resident ≡ serial       solution within diffTol of the serial backend's
//	                        on the same Dist, iteration counts within
//	                        diffIters (the reductions group terms by PE)
//	symmetric ≡ full        the resident solve on the PEs' symmetric-upper
//	                        operators against the serial solve on the
//	                        full-storage global K: within diffTol,
//	                        iterations within diffIters
//	p = 1 resident ≡ serial bit for bit, on the unshifted operator (with
//	                        a shift the resident pᵀAp adds σ·Σm‖p‖² as a
//	                        term of its own — that is what lets it ride
//	                        the exchange crossing — so it rounds apart)
//	flat ≡ aggregated       bit for bit
//	resume ≡ uninterrupted  bit for bit, on a fresh Dist, from a
//	                        checkpoint at a random iteration
//	healing                 the answer's true residual on the clean
//	                        global operator is within 10·solveTol
//	kill → shrink           converges to the serial solution
const (
	diffTol  = 1e-5 // relative to 1 + ‖x‖∞, at solve tolerance 1e-9
	solveTol = 1e-9
)

// diffIters is the stated handful: 4 iterations plus 1 % of the
// reference count.
func diffIters(ref int) int { return 4 + ref/100 }

// applyOnly hides everything of an operator but Apply, so solver.CG
// drives it with the serial backend.
type applyOnly struct{ op par.Operator }

func (a applyOnly) Apply(y, x []float64) error { return a.op.Apply(y, x) }
func (a applyOnly) Dim() int                   { return a.op.Dim() }

type diffMesh struct {
	m   *mesh.Mesh
	mat *material.Model
	sys *fem.System
}

// randomMesh draws one of testutil's small graded meshes and assembles
// it.
func randomMesh(t *testing.T, rng *rand.Rand) diffMesh {
	t.Helper()
	m, mat := testutil.RandomMesh(t, rng)
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	return diffMesh{m, mat, sys}
}

func normal(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: scalar %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func close(t *testing.T, what string, got, want []float64) {
	t.Helper()
	var scale float64
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > diffTol*(1+scale) {
			t.Fatalf("%s: scalar %d is %g, want %g (‖x‖∞ = %g)", what, i, got[i], want[i], scale)
		}
	}
}

// trueResidual is ‖b − A·x‖₂/‖b‖₂ on an operator the solve under test
// never touched.
func trueResidual(t *testing.T, a solver.Operator, b, x []float64) float64 {
	t.Helper()
	ax := make([]float64, len(x))
	if err := a.Apply(ax, x); err != nil {
		t.Fatal(err)
	}
	var r2, b2 float64
	for i := range b {
		r2 += (b[i] - ax[i]) * (b[i] - ax[i])
		b2 += b[i] * b[i]
	}
	return math.Sqrt(r2 / b2)
}

func sameResult(t *testing.T, what string, got, want *solver.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: %d iterations to residual %x, want %d to %x", what,
			got.Iterations, math.Float64bits(got.Residual), want.Iterations, math.Float64bits(want.Residual))
	}
}

func nearIterations(t *testing.T, what string, got, want *solver.Result) {
	t.Helper()
	if !got.Converged || !want.Converged {
		t.Fatalf("%s: converged %v, reference %v", what, got.Converged, want.Converged)
	}
	if d, most := got.Iterations-want.Iterations, diffIters(want.Iterations); d < -most || d > most {
		t.Fatalf("%s: %d iterations, reference %d — more than %d apart", what, got.Iterations, want.Iterations, most)
	}
}

func TestDifferentialResidentCG(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	detections := 0
	defer func() {
		if detections == 0 && !t.Failed() {
			t.Error("no corrupted exchange in the whole table was detected")
		}
	}()
	for mi := 0; mi < 2; mi++ {
		dm := randomMesh(t, rng)
		n := 3 * dm.m.NumNodes()
		for _, method := range []partition.Method{partition.RCB, partition.Inertial} {
			for _, p := range []int{1, 2, 3, 4, 8} {
				// One node size per configuration, drawn so that each of
				// 1, 2, 4 meets every width over the table.
				size := []int{1, 2, 4}[rng.Intn(3)]
				seed := rng.Int63()
				name := fmt.Sprintf("mesh%d_%dnodes/%v/p%d/node%d", mi, dm.m.NumNodes(), method, p, size)
				t.Run(name, func(t *testing.T) {
					differentialCase(t, dm, method, p, size, rand.New(rand.NewSource(seed)), n, &detections)
				})
			}
		}
	}
}

func differentialCase(t *testing.T, dm diffMesh, method partition.Method, p, size int, rng *rand.Rand, n int, detections *int) {
	pt, err := partition.PartitionMesh(dm.m, p, method, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(dm.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := comm.ContiguousNodes(size)
	dist := func(aggregated bool) *par.Dist {
		d, err := par.NewDist(dm.m, dm.mat, pt, pr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		if aggregated {
			if err := d.SetAggregation(nodeOf); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	solve := func(what string, op solver.Operator, b []float64, cfg solver.Config) ([]float64, *solver.Result) {
		t.Helper()
		x := make([]float64, n)
		cfg.MaxIter, cfg.Tol = 4*n, solveTol
		res, err := solver.CG(op, b, x, cfg)
		if err != nil || !res.Converged {
			t.Fatalf("%s: %+v, err=%v", what, res, err)
		}
		return x, res
	}

	flat, agg := dist(false), dist(true)
	opFlat := par.Operator{D: flat, Shift: 20, MassNode: dm.sys.MassNode}
	opAgg := par.Operator{D: agg, Shift: 20, MassNode: dm.sys.MassNode}
	b := normal(rng, n)

	// Plain: serial reference, resident flat, resident aggregated.
	xs, rs := solve("serial", applyOnly{opFlat}, b, solver.Config{})
	xf, rf := solve("resident flat", opFlat, b, solver.Config{})
	close(t, "resident vs serial", xf, xs)
	nearIterations(t, "resident vs serial", rf, rs)
	xa, ra := solve("resident aggregated", opAgg, b, solver.Config{})
	bitEqual(t, "aggregated vs flat", xa, xf)
	sameResult(t, "aggregated vs flat", ra, rf)

	// The PEs hold symmetric-upper storage; the global reference kernel
	// is full storage and shares no arithmetic with it.
	global := solver.Shifted{K: dm.sys.K, MassNode: dm.sys.MassNode, Sigma: 20}
	xg, rg := solve("serial on the global K", global, b, solver.Config{})
	close(t, "symmetric resident vs full-storage serial", xf, xg)
	nearIterations(t, "symmetric resident vs full-storage serial", rf, rg)

	// p = 1: the resident kernels are the serial arithmetic. Compared
	// after a fixed number of iterations on the unshifted (singular)
	// operator with a consistent right-hand side, so nothing depends on
	// how far such a system converges.
	if p == 1 {
		bare := par.Operator{D: flat}
		kb := make([]float64, n)
		if err := bare.Apply(kb, normal(rng, n)); err != nil {
			t.Fatal(err)
		}
		x1, xr := make([]float64, n), make([]float64, n)
		r1, err1 := solver.CG(applyOnly{bare}, kb, x1, solver.Config{MaxIter: 40, Tol: 1e-300})
		rr, err2 := solver.CG(bare, kb, xr, solver.Config{MaxIter: 40, Tol: 1e-300})
		if err1 != nil || err2 != nil {
			t.Fatalf("p=1 solves: %v, %v", err1, err2)
		}
		bitEqual(t, "p=1 resident vs serial", xr, x1)
		sameResult(t, "p=1 resident vs serial", rr, r1)
	}

	// Jacobi.
	prec := make([]float64, n)
	for i, d := range global.Diagonal() {
		prec[i] = 1 / d
	}
	xsj, rsj := solve("serial jacobi", applyOnly{opFlat}, b, solver.Config{Precondition: prec})
	xrj, rrj := solve("resident jacobi", opAgg, b, solver.Config{Precondition: prec})
	close(t, "jacobi resident vs serial", xrj, xsj)
	nearIterations(t, "jacobi resident vs serial", rrj, rsj)
	close(t, "jacobi vs plain", xrj, xs)

	// Checkpoint, then resume from a random snapshot on a fresh Dist.
	var states []*solver.State
	xu, ru := solve("checkpointed", opAgg, b, solver.Config{Precondition: prec, CheckpointEvery: 1 + rng.Intn(9),
		OnCheckpoint: func(s *solver.State) { states = append(states, s) }})
	bitEqual(t, "checkpointing changed the iterates", xu, xrj)
	st := states[rng.Intn(len(states))]
	opFresh := par.Operator{D: dist(true), Shift: 20, MassNode: dm.sys.MassNode}
	xres, rres := solve(fmt.Sprintf("resumed at %d", st.Iter), opFresh, b, solver.Config{Precondition: prec, Resume: st})
	bitEqual(t, fmt.Sprintf("resumed at %d vs uninterrupted", st.Iter), xres, xu)
	sameResult(t, fmt.Sprintf("resumed at %d vs uninterrupted", st.Iter), rres, ru)

	if p == 1 {
		return // no exchange to corrupt, no survivor to shrink onto
	}

	// Self-healing under a corrupted exchange.
	src := rng.Intn(p)
	for len(agg.Neighbors[src]) == 0 {
		src = (src + 1) % p
	}
	dst := agg.Neighbors[src][rng.Intn(len(agg.Neighbors[src]))]
	plan, err := fault.Parse(fmt.Sprintf("seed:%d;corrupt:pe=%d->%d,iter=%d,bit=62", 1+rng.Intn(1000), src, dst, 3+rng.Intn(rs.Iterations/2)))
	if err != nil {
		t.Fatal(err)
	}
	in, err := agg.InjectFaults(plan)
	if err != nil {
		t.Fatal(err)
	}
	xh, rh := solve("healing under "+plan.String(), opAgg, b, solver.Config{CheckEvery: 5, MaxRecoveries: 8})
	if in.Count(fault.Corrupt) != 1 || rh.Detections != rh.Rollbacks+rh.Restarts {
		t.Fatalf("healing under %s: injected %d, result %+v", plan, in.Count(fault.Corrupt), rh)
	}
	// A flipped word need not be detected — it may strike a replica that
	// no reduction counts, too lightly to move the owners' iterate — but
	// then it must not matter: the answer is certified either way, and
	// the certificate is checked here on the clean global operator, which
	// no audit of the solve has touched. (An audit that took the residual
	// on the replicas passed this table's mesh1/inertial/p8 row with a
	// true residual of 0.057: the flipped word had parted one replica of
	// x from its owner for good.)
	if res := trueResidual(t, global, b, xh); res > 10*solveTol {
		t.Fatalf("healing under %s: true residual %g on the clean operator, want ≤ %g", plan, res, 10*solveTol)
	}
	*detections += rh.Detections
	if _, err := agg.InjectFaults(nil); err != nil {
		t.Fatal(err)
	}

	// A kill mid-solve: Supervise shrinks onto the survivors and the
	// answer is still the serial one.
	kill, err := fault.Parse(fmt.Sprintf("kill:pe=%d,iter=%d", rng.Intn(p), 3+rng.Intn(rs.Iterations/2)))
	if err != nil {
		t.Fatal(err)
	}
	xk := make([]float64, n)
	out, err := rec.Supervise(agg, &rec.System{Mesh: dm.m, Material: dm.mat, Part: pt, Shift: 20, MassNode: dm.sys.MassNode, NodeOf: nodeOf},
		b, xk, rec.SuperviseConfig{Solver: solver.Config{MaxIter: 4 * n, Tol: solveTol, CheckpointEvery: 5}, Plan: kill})
	if out != nil && out.Dist != agg {
		defer out.Dist.Close()
	}
	if err != nil || !out.Result.Converged || out.Shrinks != 1 || out.Dist.P != p-1 {
		t.Fatalf("supervised solve under %s: %+v, err=%v", kill, out, err)
	}
	close(t, "after "+kill.String()+" vs serial", xk, xs)
}
