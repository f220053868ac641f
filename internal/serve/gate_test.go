package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fem"
	iq "repro/internal/quake"
	"repro/internal/solver"
)

// gateResolver serves "gate-<seed>" as a coarse San Fernando mesh whose
// period, resolution and depth are drawn from the seed, so each seed is
// its own irregular mesh through the engine's own build path.
func gateResolver(name string) (iq.Scenario, error) {
	seed, err := strconv.ParseInt(strings.TrimPrefix(name, "gate-"), 10, 64)
	if err != nil {
		return iq.Scenario{}, fmt.Errorf("gate_test: unknown scenario %q", name)
	}
	rng := rand.New(rand.NewSource(seed))
	return iq.Scenario{Name: name, Period: 24 + 12*rng.Float64(), PPW: 0.8 + 0.5*rng.Float64(), MaxDepth: 3}, nil
}

// TestNoWrongAnswerIsServed is the gate's differential: seeded corrupt,
// drop and dup plans at kernels 1–15 (corrupt at bits 40–62), over
// seeded meshes × p ∈ {2, 4, 8}, plus the two plans that were once
// served as converged and certified at about 500× tol. Every completed
// solve is either certified — its certificate ≤ 10·tol and re-checked
// on the clean global operator, which no fault touched — or reports
// neither convergence nor a certificate. Every other solve ends
// JobFailed. At the parent commit 110 of 150 such plans on the tiny
// mesh came back converged and certified at 15× to 280 000× tol.
func TestNoWrongAnswerIsServed(t *testing.T) {
	const tol = 1e-8
	e := newTestEngine(t, Config{scenarios: func(name string) (iq.Scenario, error) {
		if strings.HasPrefix(name, "tiny") {
			return tinyResolver(name)
		}
		return gateResolver(name)
	}})
	var b, x []float64
	e.answered = func(bb, xx []float64) { b, x = bb, xx }
	clean := map[string]solver.Shifted{}
	var certified, unconverged, failed int
	check := func(req *SolveRequest) {
		t.Helper()
		b, x = nil, nil
		res, err := e.Solve(context.Background(), req)
		what := fmt.Sprintf("%s/p%d %q", req.Scenario, req.PEs, req.Faults)
		if err != nil {
			if res == nil {
				t.Fatalf("%s: %v", what, err)
			}
			if st, ok := e.Job(res.JobID); !ok || st.State != JobFailed {
				t.Fatalf("%s: failed solve (%v) left its job %+v", what, err, st)
			}
			failed++
			return
		}
		if !res.Converged {
			if res.Certified || res.CertResidual != 0 {
				t.Fatalf("%s: unconverged solve carries a certificate: %+v", what, res)
			}
			unconverged++
			return
		}
		if !res.Certified || !(res.CertResidual <= 10*tol) {
			t.Fatalf("%s: served converged with certified=%v at %g", what, res.Certified, res.CertResidual)
		}
		op, ok := clean[req.Scenario]
		if !ok {
			sp, err := e.scenario(req.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := fem.Assemble(sp.mesh, sp.mat)
			if err != nil {
				t.Fatal(err)
			}
			op = solver.Shifted{K: sys.K, MassNode: sp.massNode, Sigma: 20}
			clean[req.Scenario] = op
		}
		ax := make([]float64, len(x))
		if err := op.Apply(ax, x); err != nil {
			t.Fatal(err)
		}
		var rr, bb float64
		for i := range b {
			rr += (b[i] - ax[i]) * (b[i] - ax[i])
			bb += b[i] * b[i]
		}
		if r := math.Sqrt(rr / bb); !(r <= 10*tol) {
			t.Fatalf("%s: served converged and certified at %g, but the clean operator finds %g", what, res.CertResidual, r)
		}
		certified++
	}

	for _, plan := range []string{"corrupt:pe=1->0,iter=3,bit=62", "corrupt:pe=3->0,iter=3,bit=62"} {
		check(&SolveRequest{Scenario: "tiny", PEs: 4, Tol: tol, Faults: plan})
	}
	rng := rand.New(rand.NewSource(20261017))
	for seed := int64(1); seed <= 3; seed++ {
		for _, p := range []int{2, 4, 8} {
			for _, kind := range []string{"corrupt", "drop", "dup"} {
				for i := 0; i < 6; i++ {
					src := rng.Intn(p)
					dst := (src + 1 + rng.Intn(p-1)) % p
					plan := fmt.Sprintf("%s:pe=%d->%d,iter=%d", kind, src, dst, 1+rng.Intn(15))
					if kind == "corrupt" {
						plan += fmt.Sprintf(",bit=%d", 40+rng.Intn(23))
					}
					check(&SolveRequest{Scenario: fmt.Sprintf("gate-%d", seed), PEs: p, Tol: tol, Faults: plan})
				}
			}
		}
	}
	t.Logf("%d certified, %d unconverged, %d failed", certified, unconverged, failed)
}
