package quake

// Cross-layer integration tests: the same quantities computed through
// different subsystems must agree. These are the checks that keep the
// reproduction honest — the closed-form model, the schedule layer, the
// discrete simulators, and the partition analysis all describe one
// exchange.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/testutil"
)

var integMethods = []partition.Method{partition.RCB, partition.Inertial, partition.Multilevel}

func profileFor(t *testing.T, p int, method partition.Method) *partition.Profile {
	t.Helper()
	m, err := SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, p, method, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestScheduleAgreesWithProfile: the schedule built from the message
// matrix must reproduce the profile's per-PE word and block counts.
func TestScheduleAgreesWithProfile(t *testing.T) {
	for _, method := range integMethods {
		for _, p := range []int{4, 16, 64} {
			pr := profileFor(t, p, method)
			s, err := comm.FromMatrix(pr.Msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			words := s.WordsPerPE()
			blocks := s.BlocksPerPE()
			for i := 0; i < p; i++ {
				if words[i] != pr.C[i] {
					t.Fatalf("%v/p=%d: schedule words[%d]=%d, profile C=%d",
						method, p, i, words[i], pr.C[i])
				}
				if blocks[i] != pr.B[i] {
					t.Fatalf("%v/p=%d: schedule blocks[%d]=%d, profile B=%d",
						method, p, i, blocks[i], pr.B[i])
				}
			}
		}
	}
}

// TestModelWithinBetaOfExact: the paper's approximation B_max·Tl +
// C_max·Tw overestimates the exact per-PE maximum by at most β, on
// every machine preset — on sf10 and on random graded meshes (sf5 is
// the model_validation table, which fails to build if the bound does
// not hold).
func TestModelWithinBetaOfExact(t *testing.T) {
	sf10, err := SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		name    string
		m       *mesh.Mesh
		pcounts []int
	}
	inputs := []input{{"sf10", sf10, []int{4, 16, 64}}}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3; i++ {
		m, _ := testutil.RandomMesh(t, rng)
		inputs = append(inputs, input{fmt.Sprintf("random%d", i), m, []int{4, 16}})
	}
	for _, in := range inputs {
		for _, method := range integMethods {
			for _, p := range in.pcounts {
				_, pr, err := profileOf(in.m, p, method, 1)
				if err != nil {
					t.Fatal(err)
				}
				s, err := comm.FromMatrix(pr.Msg)
				if err != nil {
					t.Fatal(err)
				}
				beta := pr.Beta()
				for _, mp := range machine.Presets() {
					modelT := machine.ModelCommTime(s, mp)
					exactT := machine.ExactCommTime(s, mp)
					if exactT == 0 {
						continue
					}
					ratio := modelT / exactT
					if ratio < 1-1e-12 {
						t.Fatalf("%s %v/p=%d on %s: model %g below exact %g",
							in.name, method, p, mp.Name, modelT, exactT)
					}
					if ratio > beta+1e-9 {
						t.Fatalf("%s %v/p=%d on %s: model/exact %.4f exceeds β %.4f",
							in.name, method, p, mp.Name, ratio, beta)
					}
				}
			}
		}
	}
}

// TestSimulatorsConsistent: the simulated exchange on the paper's
// network ≥ exact closed form; a torus with infinite links and no hop
// latency is that network bit for bit; a contended torus is never
// faster.
func TestSimulatorsConsistent(t *testing.T) {
	for _, p := range []int{8, 27, 64} {
		pr := profileFor(t, p, partition.RCB)
		s, err := comm.FromMatrix(pr.Msg)
		if err != nil {
			t.Fatal(err)
		}
		t3e := machine.T3E()
		exact := machine.ExactCommTime(s, t3e)
		sim, err := machine.Simulate(s, t3e, machine.Crossbar{})
		if err != nil {
			t.Fatal(err)
		}
		if sim.CommTime < exact-1e-12 {
			t.Fatalf("p=%d: sim %g < exact %g", p, sim.CommTime, exact)
		}
		tor, err := network.NewTorus(p)
		if err != nil {
			t.Fatal(err)
		}
		free, err := machine.Simulate(s, t3e, tor)
		if err != nil {
			t.Fatal(err)
		}
		if free.CommTime != sim.CommTime {
			t.Fatalf("p=%d: free torus %g != crossbar %g", p, free.CommTime, sim.CommTime)
		}
		tor.LinkBytesPerSec, tor.HopLatency = 100e6, 100e-9
		contended, err := machine.Simulate(s, t3e, tor)
		if err != nil {
			t.Fatal(err)
		}
		if contended.CommTime < free.CommTime-1e-12 {
			t.Fatalf("p=%d: contention sped up exchange", p)
		}
	}
}

// TestEfficiencyConsistency: Equation (1) and Equation (2) compose —
// the efficiency achieved at the Tc produced by a machine equals the
// phase-time efficiency.
func TestEfficiencyConsistency(t *testing.T) {
	pr := profileFor(t, 32, partition.RCB)
	app := model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
	for _, mp := range machine.Presets() {
		tc := model.AchievedTc(app, mp.Tl, mp.Tw)
		e1 := model.EfficiencyFromTc(app, mp.Tf, tc)
		e2 := model.Efficiency(app, mp.Tf, mp.Tl, mp.Tw)
		if math.Abs(e1-e2) > 1e-12 {
			t.Fatalf("%s: EfficiencyFromTc %g != Efficiency %g", mp.Name, e1, e2)
		}
	}
}

// TestOverlapNeverWorse: the overlapped-model efficiency dominates the
// separated-phase efficiency for every machine and PE count.
func TestOverlapNeverWorse(t *testing.T) {
	for _, p := range []int{4, 16, 64} {
		pr := profileFor(t, p, partition.RCB)
		o := model.Overlap{
			App:       model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()},
			FBoundary: pr.FBoundaryMax(),
		}
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, mp := range machine.Presets() {
			sep := model.Efficiency(o.App, mp.Tf, mp.Tl, mp.Tw)
			ov := o.Efficiency(mp.Tf, mp.Tl, mp.Tw)
			if ov < sep-1e-12 {
				t.Fatalf("p=%d on %s: overlap efficiency %g < separated %g",
					p, mp.Name, ov, sep)
			}
			if ov > 1+1e-12 {
				t.Fatalf("p=%d on %s: overlap efficiency %g > 1", p, mp.Name, ov)
			}
		}
	}
}

// TestFixedBlockRegimeHarder: for every instance, the 4-word-block
// latency budget is strictly tighter than the maximal-block budget at
// the same burst bandwidth, and the half-latency is lower.
func TestFixedBlockRegimeHarder(t *testing.T) {
	rows, err := Properties(SF10, []int{4, 16, 64}, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		app := r.App()
		fixed := app.WithFixedBlocks(4)
		if fixed.Bmax <= app.Bmax {
			t.Fatalf("p=%d: fixed blocks did not increase B_max (%d vs %d)",
				r.P, fixed.Bmax, app.Bmax)
		}
		tc := model.RequiredTc(app, 0.9, 5e-9)
		if model.LatencyBudget(fixed, tc, 0) >= model.LatencyBudget(app, tc, 0) {
			t.Fatalf("p=%d: fixed-block latency budget not tighter", r.P)
		}
		_, latMax := model.HalfBandwidthPoint(app, 0.9, 5e-9)
		_, latFix := model.HalfBandwidthPoint(fixed, 0.9, 5e-9)
		if latFix >= latMax {
			t.Fatalf("p=%d: fixed-block half-latency not lower", r.P)
		}
	}
}

// TestBisectionModestVersusAggregate: the paper's Figure 8 point — the
// whole-machine bisection bandwidth requirement stays within a small
// multiple of a single PE's sustained requirement.
func TestBisectionModestVersusAggregate(t *testing.T) {
	rows, err := Properties(SF10, PECounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		tc := model.RequiredTc(r.App(), 0.9, 5e-9)
		bisect := model.BisectionBandwidth(r.BisectionWords, r.Cmax, tc)
		perPE := model.RequiredBandwidth(r.App(), 0.9, 5e-9)
		// The machine has r.P PEs; if bisection needed anything close to
		// P×perPE the paper's conclusion would fail. A loose factor-8
		// bound on per-PE bandwidth demonstrates "a couple of links".
		if bisect > 8*perPE {
			t.Fatalf("p=%d: bisection %g B/s vs per-PE %g B/s", r.P, bisect, perPE)
		}
	}
}
