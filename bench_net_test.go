// Network and ordering ablations: the torus-contention check of the
// paper's infinite-capacity network assumption (Section 3.3), and the
// node-ordering locality study in the spirit of Spark98.
package quake_test

import (
	"fmt"
	"math/rand"
	"testing"

	quake "repro"
	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/report"
)

// BenchmarkAblationTorusContention runs the sf5/64 exchange over a
// 4×4×4 torus with dimension-ordered routing and finite link bandwidth,
// versus the infinite-capacity model. At link bandwidths comparable to
// the per-PE requirement, contention barely moves the exchange time —
// the paper's justification for modeling only the PE-side costs.
func BenchmarkAblationTorusContention(b *testing.B) {
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
	tor, err := network.NewTorus(64)
	if err != nil {
		b.Fatal(err)
	}
	tor.HopLatency = 100e-9
	t3e := machine.T3E()
	tab := report.New("Ablation: torus link contention (sf5/64, T3E, 4x4x4 DOR torus)",
		"link MB/s", "exchange time", "vs infinite", "max link busy", "max hops")
	var slowAt300 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		free, err := machine.Simulate(sched, t3e, tor)
		if err != nil {
			b.Fatal(err)
		}
		for _, mbps := range []float64{0, 1000, 600, 300, 100, 30, 10} {
			links := tor
			links.LinkBytesPerSec = mbps * 1e6
			res, err := machine.Simulate(sched, t3e, links)
			if err != nil {
				b.Fatal(err)
			}
			label := fmt.Sprint(mbps)
			if mbps == 0 {
				label = "inf"
			}
			ratio := res.CommTime / free.CommTime
			if mbps == 300 {
				slowAt300 = ratio
			}
			tab.AddRow(label, report.SI(res.CommTime, "s"), report.F(ratio, 3),
				report.SI(res.MaxLinkBusy, "s"), fmt.Sprint(res.MaxHops))
		}
		saveTable(b, "ablation_torus", tab)
	}
	b.ReportMetric(slowAt300, "slowdown@300MB/s")
}

// BenchmarkAblationOrdering measures what node numbering does to SMVP
// throughput: the mesher's native ordering, reverse Cuthill-McKee, and
// a random shuffle, on the sf5 stiffness matrix.
func BenchmarkAblationOrdering(b *testing.B) {
	base, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	rcmPerm := base.RCMOrder()
	rcmMesh, err := base.Permute(rcmPerm)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	randPerm := make([]int32, base.NumNodes())
	for i := range randPerm {
		randPerm[i] = int32(i)
	}
	rng.Shuffle(len(randPerm), func(i, j int) { randPerm[i], randPerm[j] = randPerm[j], randPerm[i] })
	randMesh, err := base.Permute(randPerm)
	if err != nil {
		b.Fatal(err)
	}

	variants := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"native", base},
		{"rcm", rcmMesh},
		{"random", randMesh},
	}
	// b.Run calls each closure once per b.N calibration round; only the
	// final round's row is kept, one per ordering.
	rows := make([][]string, len(variants))
	for k, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			sys, err := fem.Assemble(v.m, quake.SanFernando())
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, 3*v.m.NumNodes())
			y := make([]float64, 3*v.m.NumNodes())
			for i := range x {
				x[i] = float64(i%7) * 0.3
			}
			flops := float64(2 * sys.K.NNZ())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.K.MulVec(y, x)
			}
			b.StopTimer()
			mflops := flops / (b.Elapsed().Seconds() / float64(b.N)) / 1e6
			b.ReportMetric(mflops, "MFLOPS")
			b.ReportMetric(v.m.AvgBandwidth(), "avg|i-j|")
			rows[k] = []string{v.name, report.F(v.m.AvgBandwidth(), 0),
				report.Int(int64(v.m.Bandwidth())), report.F(mflops, 0)}
		})
	}
	tab := report.New("Ablation: node ordering (sf5)", "ordering", "avg |i-j|", "max |i-j|", "MFLOPS")
	for _, row := range rows {
		if row != nil {
			tab.AddRow(row...)
		}
	}
	saveTable(b, "ablation_ordering", tab)
}

// BenchmarkTorusVsModel cross-checks three fidelity levels on sf5
// across PE counts: the closed-form model (Eq. 2 inputs), the
// infinite-network discrete sim, and the contended torus.
func BenchmarkTorusVsModel(b *testing.B) {
	m, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	t3e := machine.T3E()
	tab := report.New("Validation: model vs infinite-net sim vs contended torus (sf5, T3E, 300 MB/s links)",
		"PEs", "model", "sim", "torus", "torus/model")
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Rows = tab.Rows[:0]
		worst = 0
		for _, p := range []int{8, 27, 64, 125} {
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
			tor, err := network.NewTorus(p)
			if err != nil {
				b.Fatal(err)
			}
			modelT := machine.ModelCommTime(sched, t3e)
			sim, err := machine.Simulate(sched, t3e, machine.Crossbar{Transit: 1e-6})
			if err != nil {
				b.Fatal(err)
			}
			tor.LinkBytesPerSec, tor.HopLatency = 300e6, 100e-9
			torRes, err := machine.Simulate(sched, t3e, tor)
			if err != nil {
				b.Fatal(err)
			}
			ratio := torRes.CommTime / modelT
			if ratio > worst {
				worst = ratio
			}
			tab.AddRow(fmt.Sprint(p), report.SI(modelT, "s"), report.SI(sim.CommTime, "s"),
				report.SI(torRes.CommTime, "s"), report.F(ratio, 3))
		}
		saveTable(b, "validation_torus", tab)
	}
	b.ReportMetric(worst, "worstTorus/Model")
}

// BenchmarkMeshGeneration measures the mesher's throughput end to end:
// octree build + conforming tetrahedralization for the sf5 scenario.
func BenchmarkMeshGeneration(b *testing.B) {
	var elems int
	for i := 0; i < b.N; i++ {
		m, err := quake.SF5.Build()
		if err != nil {
			b.Fatal(err)
		}
		elems = m.NumElems()
	}
	b.ReportMetric(float64(elems)/b.Elapsed().Seconds()*float64(b.N), "elems/s")
}

// BenchmarkSmoothing measures guarded Laplacian smoothing and reports
// the quality change it buys on a fresh sf10-scale mesh.
func BenchmarkSmoothing(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		m, err := quake.SF10.Build() // fresh: smoothing mutates coordinates
		if err != nil {
			b.Fatal(err)
		}
		before = m.ComputeStats().MaxAspect
		m.Smooth(3, 0.5)
		after = m.ComputeStats().MaxAspect
	}
	b.ReportMetric(before, "aspectBefore")
	b.ReportMetric(after, "aspectAfter")
}
