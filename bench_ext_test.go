// Extension benchmarks: the Spark98 kernel suite, the implicit CG
// solve on the persistent-PE runtime in its serial and resident forms,
// and the distributed explicit integrator. DESIGN.md lists them beside
// the ablation tables.
package quake_test

import (
	"math/rand"
	"testing"

	quake "repro"
	"repro/internal/fem"
	"repro/internal/partition"
	"repro/internal/solver"
	"repro/internal/spark"
)

// BenchmarkSpark98Kernels compares the SMVP kernel variants of the
// Spark98 suite (paper postscript) on sf5.
func BenchmarkSpark98Kernels(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := fem.Assemble(m, quake.SanFernando())
	if err != nil {
		b.Fatal(err)
	}
	suite, err := spark.NewSuite(sys.K)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 3*m.NumNodes())
	y := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = float64(i%13) * 0.17
	}
	flops := float64(2 * sys.K.NNZ())
	kernels := []struct {
		name string
		run  func()
	}{
		{spark.KernelSMV, func() { suite.SMV(y, x) }},
		{spark.KernelBMV, func() { suite.BMV(y, x) }},
		{spark.KernelSMVSym, func() { suite.SMVSym(y, x) }},
		{spark.KernelSMVTh, func() { suite.SMVTh(y, x, 0) }},
		{spark.KernelRMV, func() { suite.RMV(y, x, 0) }},
		{spark.KernelLockMV, func() { suite.LockMV(y, x, 0) }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(flops/(b.Elapsed().Seconds()/float64(b.N))/1e6, "MFLOPS")
		})
	}
}

// applyOnly hides everything of an operator but Apply, so CG drives it
// with the serial backend over global vectors.
type applyOnly struct{ op quake.DistOperator }

func (a applyOnly) Apply(y, x []float64) error { return a.op.Apply(y, x) }
func (a applyOnly) Dim() int                   { return a.op.Dim() }

// benchDistCG measures one repeated implicit-method solve (σ = 20, to
// tol) on the persistent-PE runtime, sc partitioned onto p PEs, and
// reports the wall and CPU time per iteration beside it. The right-hand
// side is a point load, or with a nonzero rhsSeed standard normal
// entries drawn from it, as quaked draws a request's. per-solve
// allocations stay flat (one Result plus telemetry, independent of the
// iteration count).
func benchDistCG(b *testing.B, sc quake.Scenario, p int, tol float64, rhsSeed int64, wrap func(quake.DistOperator) solver.Operator) {
	m, err := sc.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := quake.Assemble(m, quake.SanFernando())
	if err != nil {
		b.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := quake.NewDist(m, quake.SanFernando(), pt, pr)
	if err != nil {
		b.Fatal(err)
	}
	defer dist.Close()
	op := wrap(quake.DistOperator{D: dist, Shift: 20, MassNode: sys.MassNode})
	n := op.Dim()
	rhs := make([]float64, n)
	rhs[3] = 1e2
	if rhsSeed != 0 {
		rng := rand.New(rand.NewSource(rhsSeed))
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
	}
	x := make([]float64, n)
	ws := quake.NewCGWorkspace(n)
	var iters, total int
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := cpuTime()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		res, err := quake.SolveCG(op, rhs, x, quake.CGConfig{MaxIter: 2 * n, Tol: tol, Workspace: ws})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("CG did not converge")
		}
		iters = res.Iterations
		total += iters
	}
	cpu := cpuTime() - cpu0
	b.StopTimer()
	b.ReportMetric(float64(iters), "iters/solve")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(total), "us/iter")
	if cpu > 0 {
		b.ReportMetric(float64(cpu.Microseconds())/float64(total), "cpu-us/iter")
	}
}

// BenchmarkDistCGSolveSerial is the serial reference: global iteration
// vectors on the caller, one dispatched SMVP per iteration.
func BenchmarkDistCGSolveSerial(b *testing.B) {
	benchDistCG(b, quake.SF10, 8, 1e-7, 0, func(op quake.DistOperator) solver.Operator { return applyOnly{op} })
}

// BenchmarkDistCGSolveResident is the production path: the iteration
// vectors live on the PEs and one dispatch runs a burst of iterations.
// benchjson pairs the two under cg_serial/cg_resident in the report's
// kernels section.
func BenchmarkDistCGSolveResident(b *testing.B) {
	benchDistCG(b, quake.SF10, 8, 1e-7, 0, func(op quake.DistOperator) solver.Operator { return op })
}

// BenchmarkDistCGSolveResidentP2 is the resident solve at the shape of
// the end-to-end warm_large workload, sf5 on 2 PEs to tol 1e-8 with a
// random right-hand side (≈ 600 iterations): on a host with two or more
// processors every PE has one, so its phase crossings spin before they
// park (benchjson's cg_resident_p2).
func BenchmarkDistCGSolveResidentP2(b *testing.B) {
	benchDistCG(b, quake.SF5, 2, 1e-8, 1, func(op quake.DistOperator) solver.Operator { return op })
}

// BenchmarkDistributedApplication runs the full distributed explicit
// integrator (one SMVP + exchange per step on goroutine PEs) for a
// short sf10 run and reports the multiply/exchange split.
func BenchmarkDistributedApplication(b *testing.B) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	mat := quake.SanFernando()
	sys, err := fem.Assemble(m, mat)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, 8, partition.RCB, 1)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := quake.NewDist(m, mat, pt, pr)
	if err != nil {
		b.Fatal(err)
	}
	dsim, err := quake.NewDistSim(dist, sys.MassNode, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := quake.SimConfig{
		Dt:    sys.StableDt(0.5),
		Steps: 50,
		Source: quake.PointSource{
			Location:  quake.Vec3{X: 25, Y: 25, Z: 6},
			Direction: quake.Vec3{Z: 1},
			Amplitude: 1e3, PeakFreq: 0.1, Delay: 12,
		},
	}
	b.ResetTimer()
	var res *quake.DistSimResult
	for i := 0; i < b.N; i++ {
		if res, err = dsim.Run(m.Coords, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ComputeSeconds*1e3, "multiply_ms")
	b.ReportMetric(res.ExchangeSeconds*1e3, "exchange_ms")
}
