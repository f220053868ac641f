// Ordering and mesher benchmarks: SMVP throughput per node numbering
// in the spirit of Spark98 (the table is `quakerepro -only
// ablation_ordering`), and the mesher's own speed.
package quake_test

import (
	"testing"

	quake "repro"
	"repro/internal/fem"
	iq "repro/internal/quake"
)

// BenchmarkAblationOrdering measures what node numbering does to SMVP
// throughput: the mesher's native ordering, reverse Cuthill-McKee, and
// a random shuffle, on the sf5 stiffness matrix.
func BenchmarkAblationOrdering(b *testing.B) {
	base, err := quake.SF5.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	orderings, err := iq.Orderings(base)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range orderings {
		b.Run(o.Name, func(b *testing.B) {
			sys, err := fem.Assemble(o.Mesh, quake.SanFernando())
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, 3*o.Mesh.NumNodes())
			y := make([]float64, 3*o.Mesh.NumNodes())
			for i := range x {
				x[i] = float64(i%7) * 0.3
			}
			flops := float64(2 * sys.K.NNZ())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.K.MulVec(y, x)
			}
			b.StopTimer()
			b.ReportMetric(flops/(b.Elapsed().Seconds()/float64(b.N))/1e6, "MFLOPS")
			b.ReportMetric(o.Mesh.AvgBandwidth(), "avg|i-j|")
		})
	}
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
