package recover

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// randomFixture assembles one of testutil's seeded graded meshes.
func randomFixture(t *testing.T, rng *rand.Rand) *fixture {
	t.Helper()
	m, mat := testutil.RandomMesh(t, rng)
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, mat: mat, sys: sys}
}

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: scalar %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func sameResult(t *testing.T, what string, got, want *solver.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: %d iterations to residual %x (converged %v), want %d to %x (%v)", what,
			got.Iterations, math.Float64bits(got.Residual), got.Converged,
			want.Iterations, math.Float64bits(want.Residual), want.Converged)
	}
}

// TestLossPolicyDifferential is the table the one-supervisor design
// rests on, over seeded random graded meshes × widths × flat/aggregated
// exchange:
//
//	(i)   with no fault, Supervise is solver.CG — bit for bit in x, and
//	      in the iteration, residual and checkpoint counts — under either
//	      loss policy;
//	(ii)  under Replace, a solve that loses its worker before the first
//	      checkpoint, mid-solve, or twice retraces the uninterrupted
//	      trajectory bit for bit, every loss counted;
//	(iii) under the shrink policy the same plans converge and certify
//	      against an independent full-width operator;
//	(iv)  the loss bound holds for replacements, and a Replace that
//	      fails surfaces its error and leaks nothing.
func TestLossPolicyDifferential(t *testing.T) {
	const tol = 1e-10
	rng := rand.New(rand.NewSource(20260928))
	for mi := 0; mi < 2; mi++ {
		f := randomFixture(t, rng)
		b := f.rhs()
		n := len(b)
		for pi, p := range []int{2, 3, 5} {
			// One exchange form per configuration, alternating so that each
			// width meets both over the two meshes.
			nodeSize := 1 + (mi+pi)%2
			var nodeOf func(int32) int32
			if nodeSize > 1 {
				nodeOf = comm.ContiguousNodes(nodeSize)
			}
			t.Run(fmt.Sprintf("mesh%d_%dnodes/p%d/node%d", mi, f.m.NumNodes(), p, nodeSize), func(t *testing.T) {
				testutil.VerifyNoLeaks(t)
				pt := f.partition(t, p)
				fresh := func() *par.Dist {
					d := f.dist(t, pt)
					if err := d.SetAggregation(nodeOf); err != nil {
						t.Fatal(err)
					}
					return d
				}
				sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode, NodeOf: nodeOf}
				scfg := solver.Config{MaxIter: 6 * n, Tol: tol, CheckpointEvery: 5, OnCheckpoint: func(*solver.State) {}}

				refD := fresh()
				defer refD.Close()
				ref := make([]float64, n)
				refRes, err := solver.CG(par.Operator{D: refD, Shift: 20, MassNode: f.sys.MassNode}, b, ref, scfg)
				if err != nil || !refRes.Converged {
					t.Fatalf("bare reference solve: %+v, %v", refRes, err)
				}
				if refRes.Iterations < 25 {
					t.Fatalf("reference converged in %d iterations; the plans below need 25", refRes.Iterations)
				}

				// replacing hands out fresh Dists and counts them.
				replaced := 0
				replacing := func(deadPE, resumeIter int) (*par.Dist, error) {
					replaced++
					return fresh(), nil
				}

				// (i) the degenerate case, under both policies.
				for _, replace := range []func(int, int) (*par.Dist, error){nil, replacing} {
					x := make([]float64, n)
					out := superviseFixtureSolve(t, fresh(), sys, b, x, SuperviseConfig{Solver: scfg, Replace: replace})
					out.Dist.Close()
					bitEqual(t, "zero-fault supervise", x, ref)
					sameResult(t, "zero-fault supervise", out.Result, refRes)
					if out.Result.Checkpoints != refRes.Checkpoints {
						t.Fatalf("zero-fault supervise took %d checkpoints, bare CG %d", out.Result.Checkpoints, refRes.Checkpoints)
					}
					if out.Shrinks+out.Replacements+out.Grows+out.Migrations != 0 || replaced != 0 {
						t.Fatalf("zero-fault supervise transitioned: %+v", out)
					}
				}

				plans := []struct {
					name, plan string
					kills      int
				}{
					{"before the first checkpoint", fmt.Sprintf("kill:pe=%d,iter=1", p-1), 1},
					{"mid-solve", fmt.Sprintf("kill:pe=%d,iter=12", p-1), 1},
					{"two kills", fmt.Sprintf("kill:pe=%d,iter=7;kill:pe=0,iter=19", p-1), 2},
				}
				for _, pl := range plans {
					// (ii) replacement retraces the reference.
					replaced = 0
					x := make([]float64, n)
					out := superviseFixtureSolve(t, fresh(), sys, b, x, SuperviseConfig{
						Solver: scfg, Plan: mustPlan(t, pl.plan), Replace: replacing,
					})
					out.Dist.Close()
					bitEqual(t, "replaced solve, "+pl.name, x, ref)
					sameResult(t, "replaced solve, "+pl.name, out.Result, refRes)
					if out.Replacements != pl.kills || replaced != pl.kills || out.Shrinks != 0 || out.Dist.P != p {
						t.Fatalf("%s: %d replacements (%d Replace calls), %d shrinks, width %d; want %d, 0, %d",
							pl.name, out.Replacements, replaced, out.Shrinks, out.Dist.P, pl.kills, p)
					}

					// (iii) shrinking certifies. A second loss needs a
					// survivor to land on.
					if p-pl.kills < 1 {
						continue
					}
					x = make([]float64, n)
					out = superviseFixtureSolve(t, fresh(), sys, b, x, SuperviseConfig{Solver: scfg, Plan: mustPlan(t, pl.plan)})
					out.Dist.Close()
					if out.Shrinks != pl.kills || out.Replacements != 0 || out.Dist.P != p-pl.kills || !out.Result.Converged {
						t.Fatalf("shrunk solve, %s: %d shrinks, width %d, %+v", pl.name, out.Shrinks, out.Dist.P, out.Result)
					}
					certify(t, f, refD, b, x, tol)
				}

				// (iv) the loss bound counts replacements: one allowed,
				// two needed.
				replaced = 0
				out, err := Supervise(fresh(), sys, b, make([]float64, n), SuperviseConfig{
					Solver: scfg, Plan: mustPlan(t, plans[2].plan), Replace: replacing, MaxShrinks: 1,
				})
				out.Dist.Close()
				if _, killed := DeadPE(err); !killed || out.Replacements != 1 || replaced != 1 {
					t.Fatalf("second loss past the bound: err %v, %d replacements (%d Replace calls)", err, out.Replacements, replaced)
				}
				// A negative bound absorbs none.
				out, err = Supervise(fresh(), sys, b, make([]float64, n), SuperviseConfig{
					Solver: scfg, Plan: mustPlan(t, plans[1].plan), Replace: replacing, MaxShrinks: -1,
				})
				out.Dist.Close()
				if _, killed := DeadPE(err); !killed || out.Replacements != 0 || replaced != 1 {
					t.Fatalf("loss with no budget: err %v, %d replacements (%d Replace calls)", err, out.Replacements, replaced)
				}
				// A Replace that cannot deliver ends the solve with its
				// error; the supervisor has already closed the dead Dist.
				noWorker := errors.New("no worker left")
				out, err = Supervise(fresh(), sys, b, make([]float64, n), SuperviseConfig{
					Solver: scfg, Plan: mustPlan(t, plans[1].plan),
					Replace: func(int, int) (*par.Dist, error) { return nil, noWorker },
				})
				if !errors.Is(err, noWorker) || out.Replacements != 0 {
					t.Fatalf("failed Replace: err %v, %d replacements", err, out.Replacements)
				}
			})
		}
	}
}

// TestSuperviseResumesFromCallerState pins the restart rule for a solve
// that was itself resumed: a worker lost before the next snapshot goes
// back to the state the caller handed in, not to iteration zero.
func TestSuperviseResumesFromCallerState(t *testing.T) {
	f := newFixture(t)
	b := f.rhs()
	n := len(b)
	pt := f.partition(t, 4)
	sys := &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}
	var at20 *solver.State
	scfg := solver.Config{MaxIter: 6 * n, Tol: 1e-10, CheckpointEvery: 10, OnCheckpoint: func(st *solver.State) {
		if st.Iter == 20 {
			at20 = st
		}
	}}
	ref := make([]float64, n)
	refOut := superviseFixtureSolve(t, f.dist(t, pt), sys, b, ref, SuperviseConfig{Solver: scfg})
	refOut.Dist.Close()
	if at20 == nil {
		t.Fatal("reference solve never reached iteration 20")
	}

	// Resume at 20 and lose the worker three kernels later, before the
	// snapshot at 30. A cold restart would snapshot iteration 0 again.
	for _, replace := range []bool{true, false} {
		first := -1
		scfg.Resume = at20
		scfg.OnCheckpoint = func(st *solver.State) {
			if first < 0 {
				first = st.Iter
			}
		}
		cfg := SuperviseConfig{Solver: scfg, Plan: mustPlan(t, "kill:pe=1,iter=3")}
		if replace {
			cfg.Replace = func(_, resumeIter int) (*par.Dist, error) {
				if resumeIter != 20 {
					t.Errorf("replacement resumes at iteration %d, want the caller's 20", resumeIter)
				}
				return f.dist(t, pt), nil
			}
		}
		x := make([]float64, n)
		out := superviseFixtureSolve(t, f.dist(t, pt), sys, b, x, cfg)
		out.Dist.Close()
		if out.Shrinks+out.Replacements != 1 || !out.Result.Converged {
			t.Fatalf("replace=%v: %d shrinks, %d replacements, %+v", replace, out.Shrinks, out.Replacements, out.Result)
		}
		if first != 30 {
			t.Fatalf("replace=%v: first snapshot after the loss at iteration %d, want 30", replace, first)
		}
		if replace {
			bitEqual(t, "resumed, replaced solve", x, ref)
			sameResult(t, "resumed, replaced solve", out.Result, refOut.Result)
		}
	}
}
