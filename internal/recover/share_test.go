package recover

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
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

// derive builds the Dist on pt from src (par.NewDistSharing, the path
// every pool spawn and every supervised transition takes), holds it to
// par.NewDist on pt with sameDist, and closes it, so that whatever is
// derived from it next reads a closed Dist's operators. It returns the
// derived operators and the elements the derivation integrated.
func derive(t *testing.T, f *fixture, pt *partition.Partition, src par.Operators) (par.Operators, int64) {
	t.Helper()
	pr, err := partition.Analyze(f.m, pt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := par.NewDist(f.m, f.mat, pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	integrated := obs.GetCounter("par.dist.elems_integrated")
	before := integrated.Value()
	got, err := par.NewDistSharing(f.m, f.mat, pt, pr, src)
	if err != nil {
		t.Fatal(err)
	}
	n := integrated.Value() - before
	got.Close()
	sameDist(t, got, want)
	for i, k := range got.K {
		switch shared := slices.Contains(src.K, k); {
		case pt == src.Part && k != src.K[i]:
			t.Errorf("a respawn built PE %d's operator instead of sharing it", i)
		case pt != src.Part && shared:
			t.Errorf("PE %d shares a whole operator on a partition that is not its source's", i)
		}
	}
	return got.Operators(pt), n
}

// TestSharingMatchesAssembly is the differential behind operator
// sharing and row copying: every Dist derived from its predecessor's
// operators is byte for byte the Dist par.NewDist assembles on the same
// partition. Over seeded random graded meshes × p ∈ {2, 4, 8}: a
// respawn (shares every operator, integrates nothing), a shrink of
// every PE, a grow into every slot, a rebalance, and the chains
// Supervise runs — shrink→grow and shrink→shrink — each step derived
// from the last, closed, Dist. A shrink at p ≥ 4 integrates fewer
// elements than the mesh has. The rebalance keeps the width and moves
// one layer, so a rule that shared on width alone would share there.
// On sf10/p4, the faulted workload's tuple, every shrink integrates
// fewer than half the elements.
func TestSharingMatchesAssembly(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	rng := rand.New(rand.NewSource(20261017))
	for mi := 0; mi < 3; mi++ {
		f := randomFixture(t, rng)
		ne := int64(f.m.NumElems())
		for _, p := range []int{2, 4, 8} {
			pt := f.partition(t, p)
			src := f.dist(t, pt)
			src.Close() // a closed Dist's operators stay readable
			live := src.Operators(pt)
			name := fmt.Sprintf("mesh%d/p%d/", mi, p)
			t.Run(name+"respawn", func(t *testing.T) {
				if _, n := derive(t, f, pt, live); n != 0 {
					t.Errorf("a respawn integrated %d elements, want 0", n)
				}
			})
			t.Run(name+"shrink", func(t *testing.T) {
				for dead := 0; dead < p; dead++ {
					spt, err := ShrinkPartition(f.m, pt, dead)
					if err != nil {
						t.Fatal(err)
					}
					shrunk, n := derive(t, f, spt, live)
					if p >= 4 && n >= ne {
						t.Errorf("shrink of PE %d integrated %d of %d elements", dead, n, ne)
					}
					// The chains Supervise runs: a regrow into the dead
					// slot and a second loss, each from the shrink's
					// operators.
					gpt, _, err := GrowPartition(f.m, spt, dead)
					if err != nil {
						t.Fatal(err)
					}
					derive(t, f, gpt, shrunk)
					if p > 2 {
						twice, err := ShrinkPartition(f.m, spt, (dead+1)%(p-1))
						if err != nil {
							t.Fatal(err)
						}
						derive(t, f, twice, shrunk)
					}
				}
			})
			t.Run(name+"grow", func(t *testing.T) {
				for slot := 0; slot <= p; slot++ {
					gpt, _, err := GrowPartition(f.m, pt, slot)
					if err != nil {
						t.Fatal(err)
					}
					derive(t, f, gpt, live)
				}
			})
			t.Run(name+"rebalance", func(t *testing.T) {
				loads := make([]int64, p)
				for q, s := range pt.Sizes() {
					loads[q] = int64(s) * 1000
				}
				loads[mi%p] *= 3
				balanced, moves, err := RebalancePartition(f.m, pt, loads, 1)
				if err != nil || moves != 1 {
					t.Fatalf("rebalance: %d moves, %v", moves, err)
				}
				derive(t, f, balanced, live)
			})
		}
	}

	// The faulted workload's tuple, sf10/p4: every shrink integrates a
	// minority of the mesh.
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{m: m, mat: quake.Material()}
	pt, err := partition.PartitionMesh(m, 4, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := f.dist(t, pt)
	src.Close()
	for dead := 0; dead < 4; dead++ {
		t.Run(fmt.Sprintf("sf10/p4/shrink%d", dead), func(t *testing.T) {
			spt, err := ShrinkPartition(m, pt, dead)
			if err != nil {
				t.Fatal(err)
			}
			if _, n := derive(t, f, spt, src.Operators(pt)); 2*n >= int64(m.NumElems()) {
				t.Errorf("integrated %d of %d elements", n, m.NumElems())
			}
		})
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
	live := owner.Operators(pt)
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
	live := owner.Operators(pt)
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
