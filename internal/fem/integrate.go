package fem

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
)

// PointSource describes a body-force point source with a Ricker wavelet
// time history, applied to the mesh node nearest Location.
type PointSource struct {
	Location  geom.Vec3
	Direction geom.Vec3 // force direction (normalized internally)
	Amplitude float64
	PeakFreq  float64 // Ricker peak frequency (Hz)
	Delay     float64 // Ricker delay t0 (s); typically ~1.2/PeakFreq
}

// SimConfig configures an explicit elastodynamic run.
type SimConfig struct {
	Dt      float64
	Steps   int
	Source  PointSource
	Damping float64 // mass-proportional damping coefficient (1/s), 0 for none
	// Absorbers, when non-nil, applies Lysmer viscous boundary dampers
	// (see BuildAbsorbingDampers) so outgoing waves are not reflected
	// back into the domain.
	Absorbers *AbsorbingDampers
	// Receivers lists node indices whose displacement magnitude is
	// recorded every step.
	Receivers []int32
}

// SimResult reports the outcome and the timing decomposition of a run.
// SMVPSeconds/TotalSeconds is the paper's "over 80% of running time"
// measurement.
type SimResult struct {
	Steps        int
	SMVPSeconds  float64
	TotalSeconds float64
	// Seismograms[r][s] is |u| at receiver r after step s.
	Seismograms [][]float64
	// MaxDisplacement over all nodes and steps.
	MaxDisplacement float64
	// FlopsSMVP is the total useful flop count of all SMVPs (2·nnz·steps).
	FlopsSMVP int64
}

// SMVPShare returns the fraction of run time spent in the SMVP kernel.
func (r *SimResult) SMVPShare() float64 {
	if r.TotalSeconds == 0 {
		return 0
	}
	return r.SMVPSeconds / r.TotalSeconds
}

// solve3x3 solves a·x = b for a 3×3 row-major matrix by Cramer's rule.
// The absorber system matrix I + dt·M⁻¹·C is strictly diagonally
// dominant, so the determinant is safely away from zero.
func solve3x3(a *[9]float64, b [3]float64) [3]float64 {
	det := a[0]*(a[4]*a[8]-a[5]*a[7]) -
		a[1]*(a[3]*a[8]-a[5]*a[6]) +
		a[2]*(a[3]*a[7]-a[4]*a[6])
	inv := 1 / det
	return [3]float64{
		inv * (b[0]*(a[4]*a[8]-a[5]*a[7]) - a[1]*(b[1]*a[8]-a[5]*b[2]) + a[2]*(b[1]*a[7]-a[4]*b[2])),
		inv * (a[0]*(b[1]*a[8]-a[5]*b[2]) - b[0]*(a[3]*a[8]-a[5]*a[6]) + a[2]*(a[3]*b[2]-b[1]*a[6])),
		inv * (a[0]*(a[4]*b[2]-b[1]*a[7]) - a[1]*(a[3]*b[2]-b[1]*a[6]) + b[0]*(a[3]*a[7]-a[4]*a[6])),
	}
}

// NearestNode returns the index of the mesh node closest to p.
func (s *System) NearestNode(p geom.Vec3) int32 { return NearestNode(s.Mesh.Coords, p) }

// NearestNode returns the index of the point in coords closest to p, the
// lowest on a tie: where a point source acts.
func NearestNode(coords []geom.Vec3, p geom.Vec3) int32 {
	best := int32(0)
	bestD := math.Inf(1)
	for i, c := range coords {
		if d := c.Dist(p); d < bestD {
			bestD = d
			best = int32(i)
		}
	}
	return best
}

// Force returns the source's body force at time t: the Ricker wavelet
// along the normalized direction, vertical when Direction is zero.
func (ps PointSource) Force(t float64) [3]float64 {
	dir := ps.Direction.Normalize()
	if dir == (geom.Vec3{}) {
		dir = geom.V(0, 0, 1)
	}
	amp := ps.Amplitude * Ricker(t, ps.PeakFreq, ps.Delay)
	return [3]float64{amp * dir.X, amp * dir.Y, amp * dir.Z}
}

// UpdateNodes is the node update of one explicit step over the nodes
// behind u and v (three scalars per node, mass one entry per node),
// given ku = K·u: with the force f at node src (−1 for none) it steps
//
//	v⁺ = v + dt·(M⁻¹(f − K·u) − c·v),   u⁺ = u + dt·v⁺
//
// where a node with a boundary damper block (dampers nil without
// absorbers) takes its damper implicitly, (I + dt·M⁻¹·C)·v⁺ = rhs,
// which is unconditionally stable regardless of the damper magnitude.
// Each node's update reads only its own entries, so every replica of a
// node steps to the same bits.
func UpdateNodes(u, v, ku, mass []float64, dampers [][9]float64, src int, f [3]float64, dt, damping float64) {
	for i, m := range mass {
		invM := 1 / m
		var rhs [3]float64
		for d := 0; d < 3; d++ {
			k := 3*i + d
			fk := -ku[k]
			if i == src {
				fk += f[d]
			}
			rhs[d] = v[k] + dt*(invM*fk-damping*v[k])
		}
		if dampers != nil {
			blk := &dampers[i]
			if blk[0] != 0 || blk[4] != 0 || blk[8] != 0 {
				var a [9]float64
				sc := dt * invM
				for p := 0; p < 9; p++ {
					a[p] = sc * blk[p]
				}
				a[0] += 1
				a[4] += 1
				a[8] += 1
				rhs = solve3x3(&a, rhs)
			}
		}
		for d := 0; d < 3; d++ {
			k := 3*i + d
			v[k] = rhs[d]
			u[k] += dt * v[k]
		}
	}
}

// Magnitude returns |u| at node i, what a receiver records.
func Magnitude(u []float64, i int) float64 {
	k := 3 * i
	return math.Sqrt(u[k]*u[k] + u[k+1]*u[k+1] + u[k+2]*u[k+2])
}

// MaxMagnitude returns the largest |u| over the nodes of u.
func MaxMagnitude(u []float64) (m float64) {
	for i := 0; i < len(u)/3; i++ {
		if mi := Magnitude(u, i); mi > m {
			m = mi
		}
	}
	return m
}

// Diverged is the cheap stability probe of a run: every seventh scalar
// of u is checked for NaN or a magnitude past 1e12.
func Diverged(u []float64) bool {
	for i := 0; i < len(u); i += 7 {
		if math.IsNaN(u[i]) || math.Abs(u[i]) > 1e12 {
			return true
		}
	}
	return false
}

// Run integrates the semi-discrete system M·ü + C·u̇ + K·u = f with the
// explicit central-difference method:
//
//	u⁺ = u + dt·v + dt²·M⁻¹(f − K·u − C·v)
//	(velocity form, equivalent to the classic three-level scheme)
//
// Each step performs exactly one stiffness SMVP, mirroring the Quake
// applications. The SMVP is timed separately so the share of total run
// time can be compared with the paper's >80% claim.
func (s *System) Run(cfg SimConfig) (*SimResult, error) {
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("fem: Dt must be positive, got %g", cfg.Dt)
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("fem: Steps must be positive, got %d", cfg.Steps)
	}
	if stable := s.StableDt(1.0); cfg.Dt > stable {
		return nil, fmt.Errorf("fem: Dt %g exceeds CFL limit %g", cfg.Dt, stable)
	}
	for _, r := range cfg.Receivers {
		if r < 0 || int(r) >= s.Mesh.NumNodes() {
			return nil, fmt.Errorf("fem: receiver node %d out of range", r)
		}
	}
	dof := s.NumDOF()
	u := make([]float64, dof)
	v := make([]float64, dof)
	ku := make([]float64, dof)
	src := int(s.NearestNode(cfg.Source.Location))
	var dampers [][9]float64
	if cfg.Absorbers != nil {
		dampers = cfg.Absorbers.Blocks
	}

	res := &SimResult{
		Steps:       cfg.Steps,
		Seismograms: make([][]float64, len(cfg.Receivers)),
	}
	for i := range res.Seismograms {
		res.Seismograms[i] = make([]float64, cfg.Steps)
	}

	start := time.Now()
	var smvp time.Duration
	for step := 0; step < cfg.Steps; step++ {
		t0 := time.Now()
		s.K.MulVec(ku, u)
		smvp += time.Since(t0)
		res.FlopsSMVP += int64(2 * s.K.NNZ())

		f := cfg.Source.Force(float64(step) * cfg.Dt)
		UpdateNodes(u, v, ku, s.MassNode, dampers, src, f, cfg.Dt, cfg.Damping)

		for r, node := range cfg.Receivers {
			res.Seismograms[r][step] = Magnitude(u, int(node))
		}
		if (step%16 == 0 || step == cfg.Steps-1) && Diverged(u) {
			return nil, fmt.Errorf("fem: solution diverged at step %d", step)
		}
	}
	res.TotalSeconds = time.Since(start).Seconds()
	res.SMVPSeconds = smvp.Seconds()
	res.MaxDisplacement = MaxMagnitude(u)
	return res, nil
}
