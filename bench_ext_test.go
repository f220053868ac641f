// Extension benchmarks: the Spark98 kernel suite, the overlap upper
// bound (paper footnote 1), block-size aggregation, the multilevel
// partitioner, and the implicit-method allreduce cost. These go beyond
// the paper's published figures; DESIGN.md lists them as ablations.
package quake_test

import (
	"fmt"
	"math/rand"
	"testing"

	quake "repro"
	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/partition"
	iq "repro/internal/quake"
	"repro/internal/report"
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

// BenchmarkAblationOverlap quantifies the paper's footnote 1: the
// upper-bound speedup from overlapping interior computation with the
// exchange, per PE count on the T3E. Modeled only: the measured kernel
// was removed as a closed negative result (docs/PERFORMANCE.md).
func BenchmarkAblationOverlap(b *testing.B) {
	s := quake.SF5
	m, err := s.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	t3e := machine.T3E()
	tab := report.New("Ablation: overlap upper bound ("+s.Name+", T3E)",
		"PEs", "boundary flop frac", "E separated", "E overlapped", "speedup")
	var maxSpeedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		maxSpeedup = 0
		for _, p := range quake.PECounts {
			pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := partition.Analyze(m, pt)
			if err != nil {
				b.Fatal(err)
			}
			o := model.Overlap{
				App:       model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()},
				FBoundary: pr.FBoundaryMax(),
			}
			if err := o.Validate(); err != nil {
				b.Fatal(err)
			}
			sp := o.Speedup(t3e.Tf, t3e.Tl, t3e.Tw)
			if sp > maxSpeedup {
				maxSpeedup = sp
			}
			tab.AddRow(fmt.Sprint(p),
				report.F(float64(o.FBoundary)/float64(o.App.F), 3),
				report.F(model.Efficiency(o.App, t3e.Tf, t3e.Tl, t3e.Tw), 3),
				report.F(o.Efficiency(t3e.Tf, t3e.Tl, t3e.Tw), 3),
				report.F(sp, 3))
		}
		saveTable(b, "ablation_overlap", tab)
	}
	b.ReportMetric(maxSpeedup, "maxSpeedup")
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

// BenchmarkAblationBlockSize sweeps the transfer-unit size: the same
// sf5/64 exchange executed with maximal blocks down to 4-word
// cache-line blocks on the measured T3E. Latency dominance appears as
// the sharp rise at small block sizes (the paper's Figure 10b point).
func BenchmarkAblationBlockSize(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, 64, partition.RCB, 1)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		b.Fatal(err)
	}
	base, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		b.Fatal(err)
	}
	t3e := machine.T3E()
	tab := report.New("Ablation: transfer-unit size (sf5/64, T3E)",
		"block words", "blocks total", "exchange time", "vs maximal")
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		ref := machine.ExactCommTime(base, t3e)
		tab.AddRow("maximal", report.Int(int64(base.TotalBlocks())), report.SI(ref, "s"), "1.00")
		worst = 1
		for _, w := range []int64{1024, 256, 64, 16, 4} {
			split, err := base.SplitBlocks(w)
			if err != nil {
				b.Fatal(err)
			}
			ct := machine.ExactCommTime(split, t3e)
			ratio := ct / ref
			if ratio > worst {
				worst = ratio
			}
			tab.AddRow(fmt.Sprint(w), report.Int(int64(split.TotalBlocks())),
				report.SI(ct, "s"), report.F(ratio, 2))
		}
		saveTable(b, "ablation_blocksize", tab)
	}
	b.ReportMetric(worst, "4wordSlowdown")
}

// BenchmarkAblationMultilevel compares the multilevel KL/FM partitioner
// against geometric RCB across PE counts on sf5 (the paper notes its
// geometric partitioner is "competitive with other modern partitioning
// algorithms" — this measures that claim on our meshes).
func BenchmarkAblationMultilevel(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	tab := report.New("Ablation: multilevel KL/FM vs geometric RCB (sf5)",
		"PEs", "C_max RCB", "C_max ML", "ML/RCB", "B_max RCB", "B_max ML")
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		for _, p := range []int{8, 32, 128} {
			rcbPr := analyze(b, m, p, partition.RCB)
			mlPr := analyze(b, m, p, partition.Multilevel)
			ratio = float64(mlPr.Cmax()) / float64(rcbPr.Cmax())
			tab.AddRow(fmt.Sprint(p),
				report.Int(rcbPr.Cmax()), report.Int(mlPr.Cmax()), report.F(ratio, 2),
				report.Int(rcbPr.Bmax()), report.Int(mlPr.Bmax()))
		}
		saveTable(b, "ablation_multilevel", tab)
	}
	b.ReportMetric(ratio, "Cmax_ML/RCB_128PE")
}

func analyze(b *testing.B, m *quake.Mesh, p int, method partition.Method) *partition.Profile {
	b.Helper()
	pt, err := partition.PartitionMesh(m, p, method, 1)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// BenchmarkEXFLOWWorkload analyzes the synthetic external-flow mesh
// (an EXFLOW-like CFD workload: refinement around an embedded wing) on
// 128 PEs, so the paper's cross-domain comparison runs against a
// genuinely different unstructured application.
func BenchmarkEXFLOWWorkload(b *testing.B) {
	m, err := iq.XFlowMesh()
	if err != nil {
		b.Fatal(err)
	}
	tab := report.New("EXFLOW-like external-flow workload vs Quake (128 PEs, RCB)",
		"workload", "nodes", "KB/MFLOP", "msgs/MFLOP", "avg msg KB", "F/C_max", "β")
	var kbPerMFLOP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		pt, err := partition.PartitionMesh(m, 128, partition.RCB, 1)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := partition.Analyze(m, pt)
		if err != nil {
			b.Fatal(err)
		}
		var sumF int64
		for _, f := range pr.F {
			sumF += f
		}
		mflop := float64(sumF) / 1e6
		kbPerMFLOP = float64(pr.TotalWords()) * 8 / 1024 / mflop
		tab.AddRow("xflow",
			report.Int(int64(m.NumNodes())),
			report.F(kbPerMFLOP, 1),
			report.F(float64(pr.TotalMessages())/mflop, 1),
			report.F(float64(pr.TotalWords())*8/1024/float64(pr.TotalMessages()), 1),
			report.F(pr.CompCommRatio(), 0),
			report.F(pr.Beta(), 2))
		rows, err := quake.Properties(quake.SF5, []int{128}, partition.RCB)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		tab.AddRow("sf5",
			report.Int(int64(mustMesh(b, quake.SF5).NumNodes())),
			report.F(float64(r.TotalWords)*8/1024/(float64(r.SumF)/1e6), 1),
			report.F(float64(r.TotalMessages)/(float64(r.SumF)/1e6), 1),
			report.F(float64(r.TotalWords)*8/1024/float64(r.TotalMessages), 1),
			report.F(r.Ratio, 0),
			report.F(r.Beta, 2))
		tab.AddRow("EXFLOW (published)", "n/a", "144", "66", "2.2", "n/a", "n/a")
		saveTable(b, "exflow_workload", tab)
	}
	b.ReportMetric(kbPerMFLOP, "xflowKB/MFLOP")
}

func mustMesh(b *testing.B, s quake.Scenario) *quake.Mesh {
	b.Helper()
	m, err := s.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	return m
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

// BenchmarkImplicitAllreduce measures a real CG solve on sf10 and
// models the allreduce cost implicit methods add per iteration — the
// communication the Quake applications' explicit scheme avoids.
func BenchmarkImplicitAllreduce(b *testing.B) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := fem.Assemble(m, quake.SanFernando())
	if err != nil {
		b.Fatal(err)
	}
	a := quake.ShiftedOperator{K: sys.K, MassNode: sys.MassNode, Sigma: 25}
	n := a.Dim()
	rhs := make([]float64, n)
	rhs[2] = 1e3
	inv := make([]float64, n)
	for i, d := range a.Diagonal() {
		inv[i] = 1 / d
	}
	t3e := machine.T3E()
	tab := report.New("Extension: implicit (CG) step cost on the T3E (sf10)",
		"PEs", "explicit step", "implicit step", "allreduce share")
	var iters int
	var frac128 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		res, err := quake.SolveCG(a, rhs, x, quake.CGConfig{MaxIter: 3000, Tol: 1e-8, Precondition: inv})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("CG did not converge")
		}
		iters = res.Iterations
		dots := int(float64(res.DotProducts)/float64(res.Iterations) + 0.5)
		tab.Rows = tab.Rows[:0]
		rows, err := quake.Properties(quake.SF10, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			step, frac := model.ImplicitStep(r.App(), r.P, dots, t3e.Tf, t3e.Tl, t3e.Tw)
			tcomp, tcomm := model.PhaseTimes(r.App(), t3e.Tf, t3e.Tl, t3e.Tw)
			tab.AddRow(fmt.Sprint(r.P), report.SI(tcomp+tcomm, "s"),
				report.SI(step, "s"), report.F(100*frac, 1)+"%")
			frac128 = frac
		}
		saveTable(b, "extension_implicit", tab)
	}
	b.ReportMetric(float64(iters), "CGiters")
	b.ReportMetric(100*frac128, "allreduce%128PE")
}
