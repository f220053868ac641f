package recover

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/testutil"
)

// symEqual reports where two folded operators differ, or "" when they
// are byte for byte the same.
func symEqual(got, want *sparse.SymBCSR) string {
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	case !slices.Equal(got.RowOff, want.RowOff):
		return "RowOff differs"
	case !slices.Equal(got.Col, want.Col):
		return "Col differs"
	}
	for name, pair := range map[string][2][]float64{"Val": {got.Val, want.Val}, "Diag": {got.Diag, want.Diag}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Sprintf("%s has %d words, want %d", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[1] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				return fmt.Sprintf("%s[%d] is %x, want %x", name, i, math.Float64bits(pair[0][i]), math.Float64bits(pair[1][i]))
			}
		}
	}
	return ""
}

// sameDist holds got to want, the same partition assembled from
// scratch: every operator byte-equal and every exchange list equal.
func sameDist(t *testing.T, got, want *par.Dist) {
	t.Helper()
	for i := range want.K {
		if diff := symEqual(got.K[i], want.K[i]); diff != "" {
			t.Errorf("K[%d] differs from a fresh assembly: %s", i, diff)
		}
	}
	for name, pair := range map[string][2]any{
		"Nodes":     {got.Nodes, want.Nodes},
		"Neighbors": {got.Neighbors, want.Neighbors},
		"Shared":    {got.Shared, want.Shared},
		"Owner":     {got.Owner, want.Owner},
		"Boundary":  {got.Boundary, want.Boundary},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s differs from a fresh construction", name)
		}
	}
}

// TestSharingMatchesAssembly is the differential behind operator
// sharing, over seeded random graded meshes × widths: a Dist built with
// a live operator set (par.NewDistSharing, the path every pool spawn
// takes) is the Dist par.NewDist assembles from scratch. On the live
// partition — a respawn — it shares every operator; on the partition of
// any transition it shares none. The rebalance keeps the width and
// moves one layer, so a rule that matched on width alone would share
// there.
func TestSharingMatchesAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for mi := 0; mi < 3; mi++ {
		f := randomFixture(t, rng)
		for _, p := range []int{2, 4, 8} {
			pt := f.partition(t, p)
			src := f.dist(t, pt)
			src.Close() // a closed Dist's operators stay shareable
			live := par.Operators{Part: pt, K: src.K}

			shrunk, err := ShrinkPartition(f.m, pt, (mi+1)%p)
			if err != nil {
				t.Fatal(err)
			}
			grown, _, err := GrowPartition(f.m, pt, mi%(p+1))
			if err != nil {
				t.Fatal(err)
			}
			loads := make([]int64, p)
			for q, s := range pt.Sizes() {
				loads[q] = int64(s) * 1000
			}
			loads[mi%p] *= 3
			balanced, moves, err := RebalancePartition(f.m, pt, loads, 1)
			if err != nil || moves != 1 {
				t.Fatalf("rebalance: %d moves, %v", moves, err)
			}

			for _, tr := range []struct {
				name string
				pt   *partition.Partition
			}{{"respawn", pt}, {"shrink", shrunk}, {"grow", grown}, {"rebalance", balanced}} {
				t.Run(fmt.Sprintf("mesh%d/p%d/%s", mi, p, tr.name), func(t *testing.T) {
					pr, err := partition.Analyze(f.m, tr.pt)
					if err != nil {
						t.Fatal(err)
					}
					want, err := par.NewDist(f.m, f.mat, tr.pt, pr)
					if err != nil {
						t.Fatal(err)
					}
					defer want.Close()
					got, err := par.NewDistSharing(f.m, f.mat, tr.pt, pr, live)
					if err != nil {
						t.Fatal(err)
					}
					defer got.Close()
					sameDist(t, got, want)
					respawn := tr.pt == pt
					for i, k := range got.K {
						switch shared := slices.Contains(live.K, k); {
						case respawn && k != live.K[i]:
							t.Errorf("a respawn assembled PE %d's operator instead of sharing it", i)
						case !respawn && shared:
							t.Errorf("PE %d shares a live operator on a partition that is not the live one", i)
						}
					}
				})
			}
		}
	}
}

// TestSupervisedKillOnSharedOperators: a kill-fault solve under
// Supervise on a Dist whose every operator is shared ends in the same x,
// bit for bit (so the same solution_fp), and the same iterations and
// residual as the same solve on a Dist assembled from scratch.
func TestSupervisedKillOnSharedOperators(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	b := f.rhs()
	n := len(b)
	pt := f.partition(t, 8)
	pr, err := partition.Analyze(f.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.dist(t, pt)
	owner.Close()
	live := par.Operators{Part: pt, K: owner.K}
	solve := func(d *par.Dist) (*solver.Result, []float64) {
		x := make([]float64, n)
		out := superviseFixtureSolve(t, d, &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}, b, x, SuperviseConfig{
			Solver: solver.Config{MaxIter: 6 * n, Tol: 1e-10, CheckpointEvery: 5},
			Plan:   mustPlan(t, "kill:pe=5,iter=25"),
		})
		out.Dist.Close()
		d.Close()
		if out.Shrinks != 1 || !out.Result.Converged {
			t.Fatalf("supervised solve: %d shrinks, %+v", out.Shrinks, out.Result)
		}
		return out.Result, x
	}
	shared, err := par.NewDistSharing(f.m, f.mat, pt, pr, live)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, got := solve(shared)
	wantRes, want := solve(f.dist(t, pt))
	sameResult(t, "shared vs assembled", gotRes, wantRes)
	bitEqual(t, "x, shared vs assembled", got, want)
}

// TestSharedOperatorsSurviveFaults: a kill solve and a corrupt solve
// under Supervise, each on a Dist whose every operator is shared with
// one assembled Dist, leave those operators byte-equal to a fresh
// assembly — a fault writes send buffers, never a K.
func TestSharedOperatorsSurviveFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFixture(t)
	b := f.rhs()
	n := len(b)
	pt := f.partition(t, 8)
	pr, err := partition.Analyze(f.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.dist(t, pt)
	owner.Close()
	live := par.Operators{Part: pt, K: owner.K}
	for _, plan := range []string{"kill:pe=2,iter=25", "corrupt:pe=1->0,iter=3,bit=62"} {
		d, err := par.NewDistSharing(f.m, f.mat, pt, pr, live)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		out := superviseFixtureSolve(t, d, &System{Mesh: f.m, Material: f.mat, Part: pt, Shift: 20, MassNode: f.sys.MassNode}, b, x, SuperviseConfig{
			Solver: solver.Config{MaxIter: 6 * n, Tol: 1e-10, CheckpointEvery: 5},
			Plan:   mustPlan(t, plan),
		})
		out.Dist.Close()
		d.Close()
		if !out.Result.Converged {
			t.Fatalf("%s: %+v", plan, out.Result)
		}
	}
	fresh := f.dist(t, pt)
	defer fresh.Close()
	for i := range fresh.K {
		if diff := symEqual(owner.K[i], fresh.K[i]); diff != "" {
			t.Errorf("shared K[%d] after the faulted solves: %s", i, diff)
		}
	}
}
