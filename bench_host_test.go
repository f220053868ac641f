// The host benchmark: what a second goroutine buys on this machine, for
// the two resources the SMVP kernel sits on. benchjson files it in every
// snapshot's host block beside num_cpu, because num_cpu alone does not
// say it: two CPUs that are hyperthreads of one core double a memory
// stream and add nothing to a loop that already fills the core's FP
// ports (ROADMAP item 3(a); docs/PERFORMANCE.md, "Pricing the kernel").
package quake_test

import (
	"fmt"
	"sync"
	"testing"
)

var hostSink float64

// BenchmarkHostScaling runs a fixed amount of work split over 1 and 2
// goroutines: fp is twelve independent multiply-add chains held in
// registers — enough in flight to fill the FP ports rather than wait on
// one chain's latency (eight chains are latency-bound and scale 2× on
// two hyperthreads, which says nothing) — and stream sums a 27 MB array,
// the size of sf5's symmetric-upper operator (L3/DRAM bound). The ratio
// of a pair's ns/op is the scaling.
func BenchmarkHostScaling(b *testing.B) {
	const streamWords = 27 << 20 / 8
	data := make([]float64, streamWords)
	for i := range data {
		data[i] = float64(i&7) * 0.125
	}
	fp := func(iters int) float64 {
		a0, a1, a2, a3, a4, a5 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5
		a6, a7, a8, a9, a10, a11 := 1.6, 1.7, 1.8, 1.9, 2.0, 2.1
		const c, d = 0.999999, 1e-6
		for i := 0; i < iters; i++ {
			a0, a1, a2, a3 = a0*c+d, a1*c+d, a2*c+d, a3*c+d
			a4, a5, a6, a7 = a4*c+d, a5*c+d, a6*c+d, a7*c+d
			a8, a9, a10, a11 = a8*c+d, a9*c+d, a10*c+d, a11*c+d
		}
		return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11
	}
	stream := func(v []float64) float64 {
		var s0, s1, s2, s3 float64
		for i := 0; i+4 <= len(v); i += 4 {
			s0 += v[i]
			s1 += v[i+1]
			s2 += v[i+2]
			s3 += v[i+3]
		}
		return s0 + s1 + s2 + s3
	}
	const fpIters = 1 << 20
	for _, load := range []struct {
		name string
		part func(g, of int) float64
	}{
		{"fp", func(g, of int) float64 { return fp(fpIters / of) }},
		{"stream", func(g, of int) float64 { return stream(data[g*streamWords/of : (g+1)*streamWords/of]) }},
	} {
		for _, gs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/g=%d", load.name, gs), func(b *testing.B) {
				sums := make([]float64, gs)
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for g := 0; g < gs; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							sums[g] = load.part(g, gs)
						}(g)
					}
					wg.Wait()
				}
				hostSink = sums[0]
				if load.name == "stream" {
					b.ReportMetric(8*streamWords/(b.Elapsed().Seconds()/float64(b.N))/1e9, "GB/s")
				}
			})
		}
	}
}
