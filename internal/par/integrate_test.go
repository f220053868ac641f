package par

import (
	"math"
	"testing"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/solver"
)

func distSim(t *testing.T, f *fixture, p int, ab *fem.AbsorbingDampers) (*DistSim, *Dist) {
	t.Helper()
	d, _ := f.dist(t, p, partition.RCB)
	s, err := NewDistSim(d, f.sys.MassNode, ab)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func simCfg(f *fixture, steps int) fem.SimConfig {
	return fem.SimConfig{
		Dt:    f.sys.StableDt(0.5),
		Steps: steps,
		Source: fem.PointSource{
			Location:  geom.V(1, 1, 0.2),
			Direction: geom.V(0, 0, 1),
			Amplitude: 5,
			PeakFreq:  2,
			Delay:     0.5,
		},
	}
}

// TestDistributedRunMatchesSequential is the flagship validation: the
// distributed application produces the same seismograms as the
// sequential integrator. Exchange summation order differs between the
// two, so agreement is to roundoff accumulated over the run, not
// bit-for-bit.
func TestDistributedRunMatchesSequential(t *testing.T) {
	f := newFixture(t)
	cfg := simCfg(f, 250)
	cfg.Receivers = []int32{
		f.sys.NearestNode(geom.V(1, 1, 0)),
		f.sys.NearestNode(geom.V(0.3, 1.7, 0.4)),
	}
	seq, err := f.sys.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, 9} {
		s, _ := distSim(t, f, p, nil)
		dist, err := s.Run(f.m.Coords, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r := range cfg.Receivers {
			var peak float64
			for _, v := range seq.Seismograms[r] {
				if v > peak {
					peak = v
				}
			}
			for step := range seq.Seismograms[r] {
				a, b := seq.Seismograms[r][step], dist.Seismograms[r][step]
				if math.Abs(a-b) > 1e-6*(1+peak) {
					t.Fatalf("p=%d receiver %d step %d: seq %g vs dist %g",
						p, r, step, a, b)
				}
			}
		}
		if dist.FlopsSMVP <= 0 || dist.ComputeSeconds <= 0 {
			t.Errorf("p=%d: missing accounting: %+v", p, dist)
		}
		if p > 1 && dist.ExchangeSeconds <= 0 {
			t.Errorf("p=%d: no exchange time recorded", p)
		}
	}
}

// TestDistributedRunWithAbsorbers checks the distributed absorber path
// against the sequential one.
func TestDistributedRunWithAbsorbers(t *testing.T) {
	f := newFixture(t)
	ab, err := fem.BuildAbsorbingDampers(f.sys, f.mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simCfg(f, 200)
	cfg.Absorbers = ab
	cfg.Receivers = []int32{f.sys.NearestNode(geom.V(1, 1, 0.5))}
	seq, err := f.sys.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := distSim(t, f, 6, ab)
	dist, err := s.Run(f.m.Coords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, v := range seq.Seismograms[0] {
		if v > peak {
			peak = v
		}
	}
	for step := range seq.Seismograms[0] {
		a, b := seq.Seismograms[0][step], dist.Seismograms[0][step]
		if math.Abs(a-b) > 1e-6*(1+peak) {
			t.Fatalf("step %d: seq %g vs dist %g", step, a, b)
		}
	}
}

func TestDistSimErrors(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 2, partition.RCB)
	if _, err := NewDistSim(d, make([]float64, 3), nil); err == nil {
		t.Error("short mass vector accepted")
	}
	badMass := make([]float64, d.GlobalNodes)
	if _, err := NewDistSim(d, badMass, nil); err == nil {
		t.Error("zero mass accepted")
	}
	s, _ := distSim(t, f, 2, nil)
	if _, err := s.Run(f.m.Coords, fem.SimConfig{Dt: 0, Steps: 1}); err == nil {
		t.Error("zero dt accepted")
	}
	cfg := simCfg(f, 5)
	cfg.Receivers = []int32{-1}
	if _, err := s.Run(f.m.Coords, cfg); err == nil {
		t.Error("bad receiver accepted")
	}
	cfg = simCfg(f, 5)
	ab, err := fem.BuildAbsorbingDampers(f.sys, f.mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Absorbers = ab
	if _, err := s.Run(f.m.Coords, cfg); err == nil {
		t.Error("absorbers in Run without NewDistSim setup accepted")
	}
	// Mismatched absorber length in setup.
	bad := &fem.AbsorbingDampers{Blocks: make([][9]float64, 2)}
	if _, err := NewDistSim(d, f.sys.MassNode, bad); err == nil {
		t.Error("short absorber table accepted")
	}
}

// TestReplicaConsistency: after a run, the owner-recorded displacement
// of shared nodes must match what any other replica holds. We probe it
// by running two configurations of receivers on both owner and
// non-owner PEs... here approximated by running twice with different
// partitions and comparing seismograms (replicas drift only by
// roundoff).
func TestReplicaConsistency(t *testing.T) {
	f := newFixture(t)
	cfg := simCfg(f, 150)
	cfg.Receivers = []int32{f.sys.NearestNode(geom.V(1, 1, 0.3))}
	s4, _ := distSim(t, f, 4, nil)
	s8, _ := distSim(t, f, 8, nil)
	r4, err := s4.Run(f.m.Coords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := s8.Run(f.m.Coords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, v := range r4.Seismograms[0] {
		if v > peak {
			peak = v
		}
	}
	for step := range r4.Seismograms[0] {
		a, b := r4.Seismograms[0][step], r8.Seismograms[0][step]
		if math.Abs(a-b) > 1e-6*(1+peak) {
			t.Fatalf("step %d: p=4 %g vs p=8 %g", step, a, b)
		}
	}
}

// TestDistributedCG solves the shifted system with CG where every
// operator application is a distributed SMVP on goroutine PEs, and
// checks the solution against the sequential operator's CG.
func TestDistributedCG(t *testing.T) {
	f := newFixture(t)
	d, _ := f.dist(t, 6, partition.RCB)
	distOp := Operator{D: d, Shift: 20, MassNode: f.sys.MassNode}
	seqOp := solver.Shifted{K: f.sys.K, MassNode: f.sys.MassNode, Sigma: 20}
	n := distOp.Dim()
	if n != seqOp.Dim() {
		t.Fatal("dimension mismatch")
	}
	b := make([]float64, n)
	b[5] = 1e2
	b[n-4] = -3e1

	xd := make([]float64, n)
	resD, err := solver.CG(distOp, b, xd, solver.Config{MaxIter: 6 * n, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !resD.Converged {
		t.Fatalf("distributed CG did not converge: %+v", resD)
	}
	xs := make([]float64, n)
	resS, err := solver.CG(seqOp, b, xs, solver.Config{MaxIter: 6 * n, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !resS.Converged {
		t.Fatal("sequential CG did not converge")
	}
	var scale float64
	for i := range xs {
		if v := math.Abs(xs[i]); v > scale {
			scale = v
		}
	}
	for i := range xs {
		if math.Abs(xd[i]-xs[i]) > 1e-5*(1+scale) {
			t.Fatalf("solutions differ at %d: %g vs %g", i, xd[i], xs[i])
		}
	}
	// Iteration counts should be essentially identical (same operator
	// up to roundoff).
	if diff := resD.Iterations - resS.Iterations; diff < -3 || diff > 3 {
		t.Errorf("iteration counts diverge: dist %d vs seq %d", resD.Iterations, resS.Iterations)
	}
}

// TestDistSimRunAllocsFlat: a distributed run allocates the same at 10
// steps as at 50, so the step body — multiply, exchange and fem's node
// update on every PE — allocates nothing per step.
func TestDistSimRunAllocsFlat(t *testing.T) {
	f := newFixture(t)
	ab, err := fem.BuildAbsorbingDampers(f.sys, f.mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := distSim(t, f, 4, ab)
	cfg := simCfg(f, 0)
	cfg.Absorbers, cfg.Damping = ab, 0.01
	cfg.Receivers = []int32{f.sys.NearestNode(geom.V(1, 1, 0.5))}
	allocs := func(steps int) float64 {
		cfg.Steps = steps
		return testing.AllocsPerRun(5, func() {
			if _, err := s.Run(f.m.Coords, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(50)
	t.Logf("%.1f allocs at 10 steps, %.1f at 50", short, long)
	if long != short {
		t.Errorf("DistSim.Run: %.1f allocs at 10 steps, %.1f at 50", short, long)
	}
}
