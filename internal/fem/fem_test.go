package fem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/testutil"
)

var unitTet = [4]geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(0, 0, 1)}

func TestElementStiffnessSymmetric(t *testing.T) {
	blocks, vol, ok := ElementStiffness(unitTet, 2.0, 1.0)
	if !ok {
		t.Fatal("unit tet degenerate")
	}
	if math.Abs(vol-1.0/6) > 1e-15 {
		t.Errorf("vol = %g", vol)
	}
	// K_ab[i][j] == K_ba[j][i].
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					x := blocks[a][b][3*i+j]
					y := blocks[b][a][3*j+i]
					if math.Abs(x-y) > 1e-12*(1+math.Abs(x)) {
						t.Fatalf("asymmetry at (%d,%d)[%d,%d]: %g vs %g", a, b, i, j, x, y)
					}
				}
			}
		}
	}
}

func TestElementStiffnessDegenerate(t *testing.T) {
	flat := [4]geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(1, 1, 0)}
	if _, _, ok := ElementStiffness(flat, 1, 1); ok {
		t.Error("degenerate element accepted")
	}
	// Negatively oriented tets are rejected too.
	neg := [4]geom.Vec3{unitTet[1], unitTet[0], unitTet[2], unitTet[3]}
	if _, _, ok := ElementStiffness(neg, 1, 1); ok {
		t.Error("inverted element accepted")
	}
}

// applyElement computes y = K_e · x for the 12-DOF element vector x.
func applyElement(blocks *[4][4][9]float64, x *[12]float64) (y [12]float64) {
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					y[3*a+i] += blocks[a][b][3*i+j] * x[3*b+j]
				}
			}
		}
	}
	return y
}

func TestElementStiffnessRigidBodyModes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		var v [4]geom.Vec3
		for {
			for i := range v {
				v[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			}
			if geom.TetVolume(v[0], v[1], v[2], v[3]) > 0.05 {
				break
			}
		}
		lambda := 0.5 + rng.Float64()*3
		mu := 0.5 + rng.Float64()*3
		blocks, _, ok := ElementStiffness(v, lambda, mu)
		if !ok {
			t.Fatal("unexpected degenerate element")
		}
		// Rigid translation: u = const.
		var trans [12]float64
		tx, ty, tz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		for a := 0; a < 4; a++ {
			trans[3*a], trans[3*a+1], trans[3*a+2] = tx, ty, tz
		}
		y := applyElement(&blocks, &trans)
		for i, val := range y {
			if math.Abs(val) > 1e-9 {
				t.Fatalf("trial %d: translation not annihilated, y[%d]=%g", trial, i, val)
			}
		}
		// Infinitesimal rotation: u(x) = ω × x has zero strain.
		w := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		var rot [12]float64
		for a := 0; a < 4; a++ {
			u := w.Cross(v[a])
			rot[3*a], rot[3*a+1], rot[3*a+2] = u.X, u.Y, u.Z
		}
		y = applyElement(&blocks, &rot)
		for i, val := range y {
			if math.Abs(val) > 1e-8*(1+w.Norm()) {
				t.Fatalf("trial %d: rotation not annihilated, y[%d]=%g", trial, i, val)
			}
		}
		// Positive semidefinite: xᵀKx ≥ 0 for random x.
		var x [12]float64
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y = applyElement(&blocks, &x)
		var q float64
		for i := range x {
			q += x[i] * y[i]
		}
		if q < -1e-9 {
			t.Fatalf("trial %d: xᵀKx = %g < 0", trial, q)
		}
	}
}

func TestElementLumpedMass(t *testing.T) {
	m, err := ElementLumpedMass(unitTet, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.4 * (1.0 / 6) / 4
	if math.Abs(m-want) > 1e-15 {
		t.Errorf("mass = %g, want %g", m, want)
	}
	flat := [4]geom.Vec3{unitTet[0], unitTet[1], unitTet[2], geom.V(1, 1, 0)}
	if _, err := ElementLumpedMass(flat, 1); err == nil {
		t.Error("degenerate element accepted")
	}
}

func TestRickerWavelet(t *testing.T) {
	// Peak value 1 at t = t0.
	if got := Ricker(0.3, 2, 0.3); got != 1 {
		t.Errorf("Ricker peak = %g", got)
	}
	// Symmetric about t0.
	if a, b := Ricker(0.2, 2, 0.3), Ricker(0.4, 2, 0.3); math.Abs(a-b) > 1e-15 {
		t.Errorf("Ricker asymmetric: %g vs %g", a, b)
	}
	// Decays to ~0 far away.
	if got := Ricker(3, 2, 0.3); math.Abs(got) > 1e-10 {
		t.Errorf("Ricker tail = %g", got)
	}
	// Zero crossings at t0 ± 1/(π·fp·√2).
	z := 0.3 + 1/(math.Pi*2*math.Sqrt2)
	if got := Ricker(z, 2, 0.3); math.Abs(got) > 1e-12 {
		t.Errorf("Ricker at zero crossing = %g", got)
	}
}

// smallSystem assembles a small graded mesh with the San Fernando
// material model scaled to the unit cube.
func smallSystem(t testing.TB) *System {
	t.Helper()
	cfg := octree.Config{Origin: geom.V(0, 0, 0), CubeSize: 1, Nx: 1, Ny: 1, Nz: 1, MaxDepth: 3}
	h := func(p geom.Vec3) float64 {
		return math.Max(0.15, 0.4*p.Dist(geom.V(0.5, 0.5, 0)))
	}
	tr, err := octree.Build(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.FromTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	mat := material.SanFernando()
	mat.BasinCenter = geom.V(0.5, 0.5, 0)
	mat.BasinSemi = geom.V(0.4, 0.35, 0.3)
	sys, err := Assemble(m, mat)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAssembleGlobalProperties(t *testing.T) {
	sys := smallSystem(t)
	if !sys.K.IsBlockSymmetric(1e-9) {
		t.Error("assembled K not symmetric")
	}
	// K annihilates global translations.
	n := sys.Mesh.NumNodes()
	x := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		x[3*i], x[3*i+1], x[3*i+2] = 1, -2, 0.5
	}
	y := make([]float64, 3*n)
	sys.K.MulVec(y, x)
	for i, v := range y {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("K·translation nonzero at %d: %g", i, v)
		}
	}
	// All lumped masses positive; total mass = ∫ρ dV.
	var total float64
	for _, m := range sys.MassNode {
		if m <= 0 {
			t.Fatal("non-positive nodal mass")
		}
		total += m
	}
	if total <= 0 {
		t.Fatal("zero total mass")
	}
	if sys.StableDt(0.5) <= 0 {
		t.Error("non-positive stable dt")
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(&mesh.Mesh{}, material.SanFernando()); err == nil {
		t.Error("empty mesh accepted")
	}
	bad := material.SanFernando()
	bad.RockVs = -1
	sys := smallSystem(t)
	if _, err := Assemble(sys.Mesh, bad); err == nil {
		t.Error("invalid material accepted")
	}
}

// TestLumpedMassMatchesAssemble: the mass extracted from Assemble is the
// mass Assemble accumulated while it still interleaved it with the
// stiffness — one quarter of each element's mass onto each of its
// vertices, elements ascending — bit for bit, and it rejects the inputs
// Assemble rejects.
func TestLumpedMassMatchesAssemble(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	for trial := 0; trial < 4; trial++ {
		m, mat := testutil.RandomMesh(t, rng)
		want := make([]float64, m.NumNodes())
		for e := 0; e < m.NumElems(); e++ {
			tet := m.Tets[e]
			var v [4]geom.Vec3
			for i := 0; i < 4; i++ {
				v[i] = m.Coords[tet[i]]
			}
			_, _, rho := mat.Elastic(m.Centroid(e))
			mass, err := ElementLumpedMass(v, rho)
			if err != nil {
				t.Fatal(err)
			}
			for _, node := range tet {
				want[node] += mass
			}
		}
		got, err := LumpedMass(m, mat)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Assemble(m, mat)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(sys.MassNode[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d node %d: LumpedMass %x, Assemble %x, reference %x", trial, i,
					math.Float64bits(got[i]), math.Float64bits(sys.MassNode[i]), math.Float64bits(want[i]))
			}
		}
	}
	if _, err := LumpedMass(&mesh.Mesh{}, material.SanFernando()); err == nil {
		t.Error("empty mesh accepted")
	}
	bad := material.SanFernando()
	bad.RockVs = -1
	if _, err := LumpedMass(smallSystem(t).Mesh, bad); err == nil {
		t.Error("invalid material accepted")
	}
}

func TestRunPropagatesWave(t *testing.T) {
	sys := smallSystem(t)
	dt := sys.StableDt(0.5)
	src := sys.NearestNode(geom.V(0.5, 0.5, 0.1))
	rcv := sys.NearestNode(geom.V(0.9, 0.9, 0.9))
	res, err := sys.Run(SimConfig{
		Dt:    dt,
		Steps: 400,
		Source: PointSource{
			Location:  geom.V(0.5, 0.5, 0.1),
			Direction: geom.V(0, 0, 1),
			Amplitude: 1,
			PeakFreq:  2,
			Delay:     0.6,
		},
		Receivers: []int32{src, rcv},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDisplacement <= 0 {
		t.Fatal("no displacement produced")
	}
	// The wave must reach the far receiver with nonzero amplitude.
	var peakFar float64
	for _, v := range res.Seismograms[1] {
		if v > peakFar {
			peakFar = v
		}
	}
	if peakFar <= 0 {
		t.Error("wave never reached far receiver")
	}
	// And the source-adjacent receiver should move first and more.
	var peakNear float64
	for _, v := range res.Seismograms[0] {
		if v > peakNear {
			peakNear = v
		}
	}
	if peakNear <= peakFar {
		t.Errorf("near peak %g <= far peak %g", peakNear, peakFar)
	}
	if res.FlopsSMVP != int64(2*sys.K.NNZ())*int64(res.Steps) {
		t.Errorf("FlopsSMVP = %d", res.FlopsSMVP)
	}
	if res.SMVPShare() <= 0 || res.SMVPShare() >= 1 {
		t.Errorf("SMVP share = %g", res.SMVPShare())
	}
}

func TestRunRemainsBoundedWithDamping(t *testing.T) {
	sys := smallSystem(t)
	dt := sys.StableDt(0.4)
	res, err := sys.Run(SimConfig{
		Dt:      dt,
		Steps:   300,
		Damping: 0.5,
		Source: PointSource{
			Location:  geom.V(0.5, 0.5, 0),
			Direction: geom.V(1, 0, 0),
			Amplitude: 5,
			PeakFreq:  3,
			Delay:     0.4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDisplacement > 1e3 {
		t.Errorf("suspiciously large displacement %g", res.MaxDisplacement)
	}
}

func TestRunConfigErrors(t *testing.T) {
	sys := smallSystem(t)
	if _, err := sys.Run(SimConfig{Dt: 0, Steps: 10}); err == nil {
		t.Error("Dt=0 accepted")
	}
	if _, err := sys.Run(SimConfig{Dt: 1e-4, Steps: 0}); err == nil {
		t.Error("Steps=0 accepted")
	}
	if _, err := sys.Run(SimConfig{Dt: 100, Steps: 10}); err == nil {
		t.Error("unstable Dt accepted")
	}
	if _, err := sys.Run(SimConfig{Dt: sys.StableDt(0.5), Steps: 1, Receivers: []int32{-1}}); err == nil {
		t.Error("bad receiver accepted")
	}
}

func TestRunDivergenceDetected(t *testing.T) {
	sys := smallSystem(t)
	// Just past the CFL limit: the run should either error up front or
	// detect divergence. Use a dt slightly under the estimate times a
	// fudge to get instability but pass the guard.
	dt := sys.StableDt(1.0) * 0.999
	_, err := sys.Run(SimConfig{
		Dt:    dt,
		Steps: 4000,
		Source: PointSource{
			Location:  geom.V(0.5, 0.5, 0),
			Direction: geom.V(1, 1, 1),
			Amplitude: 1e6,
			PeakFreq:  5,
			Delay:     0.2,
		},
	})
	// Divergence is not guaranteed at exactly the estimate, so accept
	// either outcome, but a NaN result must never be silently returned.
	if err == nil {
		t.Log("run at ~CFL limit stayed stable (acceptable)")
	}
}

func TestNearestNode(t *testing.T) {
	sys := smallSystem(t)
	for _, p := range []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 1, 1), geom.V(0.3, 0.7, 0.2)} {
		idx := sys.NearestNode(p)
		d := sys.Mesh.Coords[idx].Dist(p)
		for i, c := range sys.Mesh.Coords {
			if c.Dist(p) < d-1e-12 {
				t.Fatalf("node %d closer to %v than reported %d", i, p, idx)
			}
		}
	}
}

// TestEnergyBoundedAfterSource checks the discrete energy of the
// undamped scheme: once the Ricker source has died out, total energy
// (kinetic + strain) must stay essentially constant — the symplectic
// central-difference integrator neither creates nor destroys energy
// below the CFL limit.
func TestEnergyBoundedAfterSource(t *testing.T) {
	sys := smallSystem(t)
	dt := sys.StableDt(0.4)
	// Short, early source: delay 0.3 s, dead after ~0.6 s.
	steps := int(2.0 / dt)
	res, err := sys.Run(SimConfig{
		Dt:    dt,
		Steps: steps,
		Source: PointSource{
			Location:  geom.V(0.5, 0.5, 0.3),
			Direction: geom.V(0, 0, 1),
			Amplitude: 1,
			PeakFreq:  5,
			Delay:     0.3,
		},
		Receivers: []int32{sys.NearestNode(geom.V(0.5, 0.5, 0))},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Proxy: the receiver displacement magnitude must not grow
	// systematically after the source dies (no numerical instability,
	// no energy injection). Compare max over the middle third against
	// max over the final third.
	seis := res.Seismograms[0]
	third := len(seis) / 3
	maxIn := func(xs []float64) float64 {
		m := 0.0
		for _, v := range xs {
			if v > m {
				m = v
			}
		}
		return m
	}
	mid := maxIn(seis[third : 2*third])
	late := maxIn(seis[2*third:])
	if late > 1.5*mid {
		t.Errorf("late motion %g grows beyond mid-run %g: energy not bounded", late, mid)
	}
}

// TestRunAllocsFlat: a run allocates the same at 10 steps as at 50, so
// the node update and the receiver and divergence probes allocate
// nothing per step.
func TestRunAllocsFlat(t *testing.T) {
	sys := smallSystem(t)
	ab, err := BuildAbsorbingDampers(sys, smallMaterial(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		Dt:        sys.StableDt(0.5),
		Source:    PointSource{Location: geom.V(0.5, 0.5, 0.2), Direction: geom.V(1, 0, 1), Amplitude: 10, PeakFreq: 3, Delay: 0.4},
		Damping:   0.01,
		Absorbers: ab,
		Receivers: []int32{sys.NearestNode(geom.V(0.5, 0.5, 0.5))},
	}
	allocs := func(steps int) float64 {
		cfg.Steps = steps
		return testing.AllocsPerRun(5, func() {
			if _, err := sys.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(50)
	t.Logf("%.1f allocs at 10 steps, %.1f at 50", short, long)
	if long != short {
		t.Errorf("System.Run: %.1f allocs at 10 steps, %.1f at 50", short, long)
	}
}
