// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus validation and ablation benches. Each benchmark both
// measures its computation and writes the rendered table to results/
// (once per run), so a single
//
//	go test -bench=. -benchmem
//
// regenerates every artifact recorded in EXPERIMENTS.md.
//
// Scenario scope is controlled by environment variables:
//
//	(default)       sf10, sf5, sf2  — the paper's running examples
//	QUAKE_LARGE=1   adds sf1s, the reduced-scale sf1 proxy
//	QUAKE_FULL=1    adds the genuine 2.4M-node sf1 (needs several GB)
package quake_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	quake "repro"
	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	obsanalyze "repro/internal/obs/analyze"
	"repro/internal/partition"
	iq "repro/internal/quake"
	"repro/internal/report"
	"repro/internal/sparse"
)

// benchScenarios returns the scenario sweep for the harness run.
func benchScenarios() []quake.Scenario {
	ss := []quake.Scenario{quake.SF10, quake.SF5, quake.SF2}
	if os.Getenv("QUAKE_FULL") == "1" {
		return append(ss, quake.SF1)
	}
	if os.Getenv("QUAKE_LARGE") == "1" {
		return append(ss, quake.SF1Small)
	}
	return ss
}

// largestScenario is the stand-in for the paper's sf2 running example.
func largestScenario() quake.Scenario {
	ss := benchScenarios()
	return ss[len(ss)-1]
}

var resultOnce sync.Map // filename -> *sync.Once

// saveTable writes a rendered table to results/<name>.txt once per run.
func saveTable(b *testing.B, name string, t *report.Table) {
	b.Helper()
	onceIface, _ := resultOnce.LoadOrStore(name, &sync.Once{})
	onceIface.(*sync.Once).Do(func() {
		if err := os.MkdirAll("results", 0o755); err != nil {
			b.Fatalf("mkdir results: %v", err)
		}
		f, err := os.Create(filepath.Join("results", name+".txt"))
		if err != nil {
			b.Fatalf("create result: %v", err)
		}
		defer f.Close()
		if err := t.Render(f); err != nil {
			b.Fatalf("render result: %v", err)
		}
	})
}

// BenchmarkFig2MeshSizes regenerates Figure 2: the sizes of the Quake
// meshes, generated versus paper.
func BenchmarkFig2MeshSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := quake.Fig2Table(benchScenarios())
		if err != nil {
			b.Fatal(err)
		}
		saveTable(b, "fig2_mesh_sizes", t)
	}
}

// BenchmarkFig6Beta regenerates Figure 6: the β error bounds on T_c for
// every scenario and subdomain count.
func BenchmarkFig6Beta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := quake.Fig6Table(benchScenarios(), quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		saveTable(b, "fig6_beta", t)
	}
}

// BenchmarkFig7Properties regenerates Figure 7: F, C_max, B_max, M_avg,
// and F/C_max for every scenario and subdomain count.
func BenchmarkFig7Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := quake.Fig7Table(benchScenarios(), quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		saveTable(b, "fig7_properties", t)
	}
	rows, err := quake.Properties(largestScenario(), []int{128}, quake.RCB)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rows[0].Cmax), "Cmax/128PE")
	b.ReportMetric(rows[0].Ratio, "F/Cmax/128PE")
}

// BenchmarkFig8Bisection regenerates Figure 8: sustained bisection
// bandwidth requirements for the running example.
func BenchmarkFig8Bisection(b *testing.B) {
	s := largestScenario()
	var worst float64
	for i := 0; i < b.N; i++ {
		t, err := quake.Fig8Table(s, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		saveTable(b, "fig8_bisection", t)
		rows, err := quake.Properties(s, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			tc := model.RequiredTc(r.App(), 0.9, 5e-9)
			if bw := model.MBps(model.BisectionBandwidth(r.BisectionWords, r.Cmax, tc)); bw > worst {
				worst = bw
			}
		}
	}
	b.ReportMetric(worst, "worstMB/s")
}

// BenchmarkFig9SustainedBW regenerates Figure 9: sustained per-PE
// bandwidth requirements for the running example.
func BenchmarkFig9SustainedBW(b *testing.B) {
	s := largestScenario()
	var worst float64
	for i := 0; i < b.N; i++ {
		t, err := quake.Fig9Table(s, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		saveTable(b, "fig9_sustained_bw", t)
		rows, err := quake.Properties(s, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if bw := model.MBps(model.RequiredBandwidth(r.App(), 0.9, 5e-9)); bw > worst {
				worst = bw
			}
		}
	}
	b.ReportMetric(worst, "worstMB/s")
}

// BenchmarkFig10Tradeoff regenerates Figure 10: the burst-bandwidth /
// block-latency tradeoff for the running example at its largest PE
// count, in both block regimes.
func BenchmarkFig10Tradeoff(b *testing.B) {
	s := largestScenario()
	bursts := []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}
	var lastLat float64
	for i := 0; i < b.N; i++ {
		rows, err := quake.Properties(s, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		saveTable(b, "fig10_tradeoff", quake.Fig10Table(r, 5e-9, bursts))
		tc := model.RequiredTc(r.App(), 0.9, 5e-9)
		lastLat = model.LatencyBudget(r.App(), tc, 0)
	}
	b.ReportMetric(lastLat*1e6, "maxLatency_µs")
}

// BenchmarkFig11HalfBandwidth regenerates Figure 11: the
// half-bandwidth / half-latency design points across the whole sweep.
func BenchmarkFig11HalfBandwidth(b *testing.B) {
	s := largestScenario()
	var hardest iq.HalfPoint
	for i := 0; i < b.N; i++ {
		t, err := quake.Fig11Table(s, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		saveTable(b, "fig11_half_bandwidth", t)
		points, err := iq.Fig11Points(s, quake.PECounts, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		hardest = points[0]
		for _, p := range points {
			if p.Regime == "maximal" && p.BurstMBps > hardest.BurstMBps {
				hardest = p
			}
		}
	}
	b.ReportMetric(hardest.BurstMBps, "hardestBurstMB/s")
	b.ReportMetric(hardest.Latency*1e6, "hardestLatency_µs")
}

// BenchmarkEXFLOWComparison regenerates the introduction's comparison
// of the Quake profile against the published EXFLOW profile.
func BenchmarkEXFLOWComparison(b *testing.B) {
	s := largestScenario()
	var cmp *iq.EXFLOWComparison
	for i := 0; i < b.N; i++ {
		rows, err := quake.Properties(s, []int{128}, quake.RCB)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err = iq.CompareEXFLOW(s, rows[0])
		if err != nil {
			b.Fatal(err)
		}
		saveTable(b, "exflow_comparison", iq.EXFLOWTable(cmp))
	}
	b.ReportMetric(cmp.QuakeKBPerMFLOP, "KB/MFLOP")
	b.ReportMetric(cmp.QuakeMsgsPerMFLOP, "msgs/MFLOP")
}

// BenchmarkTfLocalSMVP measures the host's T_f on each scenario's
// assembled stiffness matrix (Section 3.1: T_f is steady across
// instances on a given machine). The per-op time is one full local
// SMVP; the metric reports the derived sustained MFLOPS.
func BenchmarkTfLocalSMVP(b *testing.B) {
	for _, s := range benchScenarios() {
		b.Run(s.Name, func(b *testing.B) {
			m, err := s.Mesh()
			if err != nil {
				b.Fatal(err)
			}
			sys, err := quake.Assemble(m, quake.SanFernando())
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, 3*m.NumNodes())
			y := make([]float64, 3*m.NumNodes())
			for i := range x {
				x[i] = float64(i%7) * 0.5
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.K.MulVec(y, x)
			}
			b.StopTimer()
			flops := float64(2 * sys.K.NNZ())
			tf := b.Elapsed().Seconds() / float64(b.N) / flops
			b.ReportMetric(model.MFLOPS(tf), "MFLOPS")
			b.ReportMetric(tf*1e9, "Tf_ns")
		})
	}
}

// BenchmarkSMVPShare integrates the sf10 application for a short run
// and reports the fraction of time in the SMVP (Section 2.3: over 80%).
func BenchmarkSMVPShare(b *testing.B) {
	m, err := quake.SF10.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := quake.Assemble(m, quake.SanFernando())
	if err != nil {
		b.Fatal(err)
	}
	dt := sys.StableDt(0.5)
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Run(quake.SimConfig{
			Dt: dt, Steps: 100,
			Source: quake.PointSource{
				Location:  quake.Vec3{X: 25, Y: 25, Z: 6},
				Direction: quake.Vec3{Z: 1},
				Amplitude: 1e3, PeakFreq: 0.1, Delay: 12,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		share = res.SMVPShare()
	}
	b.ReportMetric(100*share, "SMVP_%")
}

// BenchmarkModelValidation compares the paper's closed-form model
// against the exact per-PE time and the discrete-event simulation on
// the measured T3E, verifying the β bound holds.
func BenchmarkModelValidation(b *testing.B) {
	s := quake.SF5
	m, err := s.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	t3e := machine.T3E()
	var worstRatio float64
	tab := report.New("Model vs exact vs discrete simulation (Cray T3E, "+s.Name+")",
		"PEs", "model", "exact", "β", "model/exact", "sim", "sim/exact")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worstRatio = 0
		tab.Rows = tab.Rows[:0]
		for _, p := range quake.PECounts {
			pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := partition.Analyze(m, pt)
			if err != nil {
				b.Fatal(err)
			}
			sched, err := comm.FromMatrix(pr.Msg)
			if err != nil {
				b.Fatal(err)
			}
			modelT := machine.ModelCommTime(sched, t3e)
			exactT := machine.ExactCommTime(sched, t3e)
			simT := machine.Simulate(sched, t3e, machine.NetworkConfig{Transit: 1e-6}).CommTime
			beta := pr.Beta()
			ratio := modelT / exactT
			if ratio > beta+1e-9 {
				b.Fatalf("p=%d: model/exact %.4f exceeds β %.4f", p, ratio, beta)
			}
			if ratio > worstRatio {
				worstRatio = ratio
			}
			tab.AddRow(fmt.Sprint(p), report.SI(modelT, "s"), report.SI(exactT, "s"),
				report.F(beta, 2), report.F(ratio, 3),
				report.SI(simT, "s"), report.F(simT/exactT, 3))
		}
		saveTable(b, "model_validation", tab)
	}
	b.ReportMetric(worstRatio, "worstModel/Exact")
}

// BenchmarkAblationPartitioners quantifies partitioner quality: C_max
// and modeled T3E efficiency per method on sf5/32.
func BenchmarkAblationPartitioners(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	t3e := machine.T3E()
	tab := report.New("Ablation: partitioner quality on sf5/32",
		"method", "C_max", "B_max", "β", "E(T3E)")
	var spread float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		var best, worst float64
		for _, method := range []partition.Method{
			partition.RCB, partition.Inertial, partition.StripesZ,
			partition.Linear, partition.Random,
		} {
			pt, err := partition.PartitionMesh(m, 32, method, 42)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := partition.Analyze(m, pt)
			if err != nil {
				b.Fatal(err)
			}
			app := model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
			e := model.Efficiency(app, t3e.Tf, t3e.Tl, t3e.Tw)
			if best == 0 || e > best {
				best = e
			}
			if worst == 0 || e < worst {
				worst = e
			}
			tab.AddRow(method.String(), report.Int(pr.Cmax()), report.Int(pr.Bmax()),
				report.F(pr.Beta(), 2), report.F(e, 3))
		}
		spread = best - worst
		saveTable(b, "ablation_partitioners", tab)
	}
	b.ReportMetric(spread, "efficiencySpread")
}

// portableSym returns a SymBCSR sharing s's arrays that always runs the
// pure-Go kernel: only a matrix NewSym built is known to carry the
// padding a vector kernel reads, so one put together by hand never gets
// it. This is how a benchmark outside internal/sparse measures both
// forms on a host where the AVX2 one is selected.
func portableSym(s *quake.SymBCSR) *quake.SymBCSR {
	return &quake.SymBCSR{N: s.N, RowOff: s.RowOff, Col: s.Col, Val: s.Val, Diag: s.Diag}
}

// BenchmarkAblationKernels compares the SMVP kernel variants on sf5:
// scalar CSR, 3×3-block BCSR, and symmetric upper storage in its
// pure-Go form (sym) and in the form selected for this host (sym_avx2;
// the same as sym where there is no AVX2).
func BenchmarkAblationKernels(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := quake.Assemble(m, quake.SanFernando())
	if err != nil {
		b.Fatal(err)
	}
	csr := sys.K.ToCSR()
	sym, err := quake.NewSym(sys.K)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 3*m.NumNodes())
	y := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = float64(i%9) * 0.25
	}
	flops := float64(2 * sys.K.NNZ())
	portable := portableSym(sym)
	var d float64
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"bcsr", func() { sys.K.MulVec(y, x) }},
		{"csr", func() { csr.MulVec(y, x) }},
		{"sym", func() { d = portable.MulVecDot(y, x) }},
		{"sym_avx2", func() { d = sym.MulVecDot(y, x) }},
		{"csr_seg", func() { csr.MulVecSegmented(y, x) }},
		// The fused kernel does strictly more work (the dot rides along),
		// so comparing its ns/op against bcsr shows what the fusion costs —
		// the win is the separate dot sweep it makes unnecessary.
		{"fused", func() { d = sys.K.MulVecDot(y, x) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(flops/(b.Elapsed().Seconds()/float64(b.N))/1e6, "MFLOPS")
		})
	}
	_ = d
}

// BenchmarkLocalKernels is the kernel as quaked's warm_large workload
// meets it: the two local operators of sf5 at p = 2, one goroutine each,
// both multiplying at once — so what the two hardware threads share
// (here: one core's FP ports and its L3 stream, see BenchmarkHostScaling)
// is in the number. bcsr is full storage, the kernel a Dist ran before it
// held symmetric storage (the global K's submatrix on each PE's nodes:
// the same rows, the same pattern); sym and sym_avx2 are the two forms of
// the kernel it runs now. One op is one fused SMVP on each PE.
func BenchmarkLocalKernels(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	mat := quake.SanFernando()
	sys, err := quake.Assemble(m, mat)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, 2, partition.RCB, 1)
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
	defer dist.Close()
	type dotter interface {
		MulVecDot(y, x []float64) float64
	}
	forms := []struct {
		name string
		of   func(pe int) dotter
	}{
		{"bcsr", func(pe int) dotter { return sparse.Submatrix(sys.K, dist.Nodes[pe]) }},
		{"sym", func(pe int) dotter { return portableSym(dist.K[pe]) }},
		{"sym_avx2", func(pe int) dotter { return dist.K[pe] }},
	}
	var flops float64
	for _, f := range dist.FlopsPerPE() {
		flops += float64(f)
	}
	for _, form := range forms {
		b.Run(form.name, func(b *testing.B) {
			ks := make([]dotter, dist.P)
			xs, ys := make([][]float64, dist.P), make([][]float64, dist.P)
			for pe := range ks {
				ks[pe] = form.of(pe)
				n := 3 * len(dist.Nodes[pe])
				xs[pe], ys[pe] = make([]float64, n), make([]float64, n)
				for i := range xs[pe] {
					xs[pe][i] = float64(i%9) * 0.25
				}
			}
			dots := make([]float64, dist.P)
			b.ResetTimer()
			var wg sync.WaitGroup
			for pe := range ks {
				wg.Add(1)
				go func(pe int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						dots[pe] = ks[pe].MulVecDot(ys[pe], xs[pe])
					}
				}(pe)
			}
			wg.Wait()
			b.ReportMetric(flops/(b.Elapsed().Seconds()/float64(b.N))/1e6, "MFLOPS")
		})
	}
}

// BenchmarkMeasuredTfShift closes the measured-T_f feedback loop: it
// runs the distributed SMVP under live telemetry, recovers the achieved
// per-flop time from the phase accumulators (obs/analyze), and
// regenerates the Eq.(1)/(2) requirements table at that measured T_f
// next to the paper-era 5 ns (200 MFLOPS) baseline. The rendered table
// (results/eq12_measured_tf.txt) is the PR's quantitative answer to
// "how does a faster local kernel shift the required T_c". The measured
// kernel is the one a Dist — and so quaked — runs, symmetric-upper
// storage in the form selected for the host; the heading's second line
// says so and points at BenchmarkAblationKernels for the comparison with
// the full-storage reference kernel of fem.System.K.
func BenchmarkMeasuredTfShift(b *testing.B) {
	s := quake.SF5
	m, err := s.Mesh()
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
	dist, err := quake.NewDist(m, quake.SanFernando(), pt, pr)
	if err != nil {
		b.Fatal(err)
	}
	defer dist.Close()
	x := make([]float64, 3*m.NumNodes())
	y := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = float64(i%7) * 0.5
	}
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	if _, err := dist.SMVP(y, x); err != nil { // steady state before measuring
		b.Fatal(err)
	}
	before := obs.Default.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.SMVP(y, x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w, ok := obsanalyze.FromSnapshots(obs.Default.Snapshot(), before)
	if !ok {
		b.Fatal("no analysis window in telemetry delta")
	}
	app := model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
	ach := obsanalyze.AchievedOf(w, app)
	if ach.Tf <= 0 {
		b.Fatal("achieved Tf not recovered from telemetry")
	}
	const baseTf = 5e-9 // the paper's 200 MFLOPS machine
	tab, err := quake.MeasuredTfTable(s, quake.PECounts, quake.RCB, baseTf, ach.Tf)
	if err != nil {
		b.Fatal(err)
	}
	tab.Title += "\nmeasured is SymBCSR.MulVecDot as the 8 PEs of a Dist — and quaked — run it, slowest PE; the three kernels side by side, one thread on the global K: kernels.{bcsr,sym,sym_avx2} of the BENCH_*.json written by the same run"
	saveTable(b, "eq12_measured_tf", tab)
	b.ReportMetric(ach.Tf*1e9, "measuredTf_ns")
	b.ReportMetric(baseTf/ach.Tf, "speedupVsBase")
}

// BenchmarkAblationBisectionNetwork shows bisection bandwidth is not
// the bottleneck: the discrete simulation's exchange time barely moves
// until the bisection channel is starved far below realistic capacity.
func BenchmarkAblationBisectionNetwork(b *testing.B) {
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
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		b.Fatal(err)
	}
	t3e := machine.T3E()
	tab := report.New("Ablation: finite bisection bandwidth (sf5/64, T3E)",
		"bisection MB/s", "exchange time", "slowdown vs infinite")
	var knee float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		free := machine.Simulate(sched, t3e, machine.NetworkConfig{}).CommTime
		knee = 0
		for _, mbps := range []float64{0, 10000, 1000, 300, 100, 30, 10, 3, 1} {
			net := machine.NetworkConfig{BisectionBytesPerSec: mbps * 1e6}
			ct := machine.Simulate(sched, t3e, net).CommTime
			label := fmt.Sprint(mbps)
			if mbps == 0 {
				label = "inf"
			}
			slow := ct / free
			tab.AddRow(label, report.SI(ct, "s"), report.F(slow, 2))
			if slow > 1.5 && (knee == 0 || mbps > knee) {
				knee = mbps
			}
		}
		saveTable(b, "ablation_bisection", tab)
	}
	b.ReportMetric(knee, "kneeMB/s")
}

// BenchmarkParallelSMVP measures the real goroutine runtime: one
// distributed SMVP per op at each PE count.
func BenchmarkParallelSMVP(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	mat := quake.SanFernando()
	for _, p := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			pt, err := partition.PartitionMesh(m, p, partition.RCB, 1)
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
			defer dist.Close()
			x := make([]float64, 3*m.NumNodes())
			y := make([]float64, 3*m.NumNodes())
			for i := range x {
				x[i] = float64(i%5) * 0.2
			}
			// The persistent-PE runtime's steady state is allocation-free;
			// report it so BENCH_<date>.json pins the property.
			b.ReportAllocs()
			b.ResetTimer()
			var tm *quake.ParTiming
			for i := 0; i < b.N; i++ {
				if tm, err = dist.SMVP(y, x); err != nil {
					b.Fatal(err)
				}
			}
			if tm != nil {
				b.ReportMetric(tm.MaxCompute().Seconds()*1e6, "compute_µs")
				b.ReportMetric(tm.MaxComm().Seconds()*1e6, "exchange_µs")
			}
		})
	}
}
