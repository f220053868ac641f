package quake

// The two tables that carry host timings: the measured per-flop time
// fed back into Equations (1)/(2), and SMVP throughput per node
// ordering. No two runs write the same numbers, so a run makes them
// only when it names them.

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/obs"
	obsanalyze "repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/report"
)

// SMVPPass is a measured run of the distributed SMVP: a number of
// kernels on the goroutine PEs of a Dist with telemetry on, and the
// metrics registry before and after them.
type SMVPPass struct {
	Profile       *partition.Profile
	Before, After *obs.Snapshot
}

// MeasureSMVP partitions the scenario's mesh onto pes PEs and runs reps
// distributed SMVPs with telemetry enabled, so the registry delta
// carries each PE's phase times and exchanged bytes (and an active
// trace their spans).
func MeasureSMVP(s Scenario, pes int, method partition.Method, reps int) (*SMVPPass, error) {
	m, err := s.Mesh()
	if err != nil {
		return nil, err
	}
	pt, pr, err := profileOf(m, pes, method, 1)
	if err != nil {
		return nil, err
	}
	dist, err := par.NewDist(m, Material(), pt, pr)
	if err != nil {
		return nil, err
	}
	defer dist.Close()
	x := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = float64(i%11) * 0.1
	}
	y := make([]float64, len(x))
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	pass := &SMVPPass{Profile: pr, Before: obs.Default.Snapshot()}
	for i := 0; i < reps; i++ {
		if _, err := dist.SMVP(y, x); err != nil {
			return nil, err
		}
	}
	pass.After = obs.Default.Snapshot()
	return pass, nil
}

// eq12MeasuredTf regenerates the Equation (1)/(2) requirements on sf5 at
// the per-flop time a measured pass achieves (sf5 on 8 PEs, read through
// obs/analyze), next to the paper-era 5 ns (200 MFLOPS) baseline.
func eq12MeasuredTf() (*report.Table, error) {
	pass, err := MeasureSMVP(SF5, 8, partition.RCB, 200)
	if err != nil {
		return nil, err
	}
	w, ok := obsanalyze.FromSnapshots(pass.After, pass.Before)
	if !ok {
		return nil, errors.New("no analysis window in the telemetry delta")
	}
	ach := obsanalyze.AchievedOf(w, appOf(pass.Profile))
	if ach.Tf <= 0 {
		return nil, errors.New("achieved Tf not recovered from telemetry")
	}
	const baseTf = 5e-9 // the paper's 200 MFLOPS machine
	t, err := measuredTfTable(SF5, PECounts, partition.RCB, baseTf, ach.Tf)
	if err != nil {
		return nil, err
	}
	t.Title += "\nmeasured is SymBCSR.MulVecDot as the 8 PEs of a Dist — and quaked — run it, slowest PE; the three kernels side by side, one thread on the global K: kernels.{bcsr,sym,sym_avx2} of the BENCH_*.json that make bench-json writes"
	return t, nil
}

// Ordering is one node numbering of a mesh.
type Ordering struct {
	Name string
	Mesh *mesh.Mesh
}

// Orderings returns m in three node numberings: the mesher's native
// one, reverse Cuthill–McKee, and a seeded random shuffle.
func Orderings(m *mesh.Mesh) ([]Ordering, error) {
	rcm, err := m.Permute(m.RCMOrder())
	if err != nil {
		return nil, err
	}
	perm := make([]int32, m.NumNodes())
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(77))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	shuffled, err := m.Permute(perm)
	if err != nil {
		return nil, err
	}
	return []Ordering{{"native", m}, {"rcm", rcm}, {"random", shuffled}}, nil
}

// ablationOrdering measures what node numbering does to SMVP throughput
// on the sf5 stiffness matrix.
func ablationOrdering() (*report.Table, error) {
	base, err := SF5.Mesh()
	if err != nil {
		return nil, err
	}
	orderings, err := Orderings(base)
	if err != nil {
		return nil, err
	}
	t := report.New("Ablation: node ordering (sf5)", "ordering", "avg |i-j|", "max |i-j|", "MFLOPS")
	for _, o := range orderings {
		sys, err := fem.Assemble(o.Mesh, Material())
		if err != nil {
			return nil, err
		}
		x := make([]float64, 3*o.Mesh.NumNodes())
		y := make([]float64, len(x))
		for i := range x {
			x[i] = float64(i%7) * 0.3
		}
		sys.K.MulVec(y, x) // warm the caches before timing
		const minTime = 250 * time.Millisecond
		start, n := time.Now(), 0
		for ; n < 3 || time.Since(start) < minTime; n++ {
			sys.K.MulVec(y, x)
		}
		perOp := time.Since(start).Seconds() / float64(n)
		mflops := float64(2*sys.K.NNZ()) / perOp / 1e6
		t.AddRow(o.Name, report.F(o.Mesh.AvgBandwidth(), 0),
			report.Int(int64(o.Mesh.Bandwidth())), report.F(mflops, 0))
	}
	return t, nil
}
