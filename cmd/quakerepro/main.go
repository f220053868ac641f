// Command quakerepro regenerates every paper figure in one shot and
// writes them to a directory (default results/), without going through
// the benchmark harness. It is the "reproduce the paper" button.
//
// With -trace and/or -metrics it also executes a measured distributed
// SMVP pass on the largest requested scenario, so the written telemetry
// contains real per-PE compute/exchange spans and exchanged-byte
// counters that can be cross-checked against the analytic C_max
// accounting. Unknown -format values are an error.
//
// Usage:
//
//	quakerepro                              # sf10+sf5 quick pass into results/
//	quakerepro -scenarios sf10,sf5,sf2 -out results -format md
//	quakerepro -scenarios sf10 -trace trace.json -metrics metrics.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/report"
)

func main() {
	scenarios := flag.String("scenarios", "sf10,sf5", "comma-separated scenario names")
	out := flag.String("out", "results", "output directory")
	format := flag.String("format", "text", "output format: text|md|csv")
	trace := flag.String("trace", "", "write a Chrome trace_event JSON file here")
	metrics := flag.String("metrics", "", "write a metrics snapshot JSON file here")
	pes := flag.Int("pes", 8, "PE count of the measured pass run for -trace/-metrics")
	httpAddr := flag.String("http", "", "serve live observability on this address while the figures regenerate (Prometheus /metrics, /metrics.json, /flight, expvar, pprof)")
	flag.Parse()

	if err := run(*scenarios, *out, *format, *trace, *metrics, *pes, *httpAddr); err != nil {
		fmt.Fprintln(os.Stderr, "quakerepro:", err)
		os.Exit(1)
	}
}

func run(scenarioList, outDir, format, tracePath, metricsPath string, pes int, httpAddr string) error {
	if httpAddr != "" {
		obs.SetEnabled(true)
		addr, shutdown, err := export.Serve(httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		defer shutdown(context.Background())
		fmt.Printf("observability: http://%s/\n", addr)
	}
	telemetry := tracePath != "" || metricsPath != ""
	if telemetry {
		obs.SetEnabled(true)
		obs.StartTrace()
		defer func() {
			obs.SetEnabled(false)
			obs.StopTrace()
		}()
	}
	var ss []quake.Scenario
	for _, name := range strings.Split(scenarioList, ",") {
		s, err := quake.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ss = append(ss, s)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	largest := ss[len(ss)-1]
	method := partition.RCB

	var ext string
	var write func(t *report.Table, f *os.File) error
	switch format {
	case "text":
		ext, write = ".txt", func(t *report.Table, f *os.File) error { return t.Render(f) }
	case "md":
		ext, write = ".md", func(t *report.Table, f *os.File) error { return t.Markdown(f) }
	case "csv":
		ext, write = ".csv", func(t *report.Table, f *os.File) error { return t.CSV(f) }
	default:
		return fmt.Errorf("unknown format %q (want text, md, or csv)", format)
	}
	save := func(name string, t *report.Table, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		f, err := os.Create(filepath.Join(outDir, name+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		return write(t, f)
	}

	type job struct {
		name string
		make func() (*report.Table, error)
	}
	jobs := []job{
		{"fig2_mesh_sizes", func() (*report.Table, error) { return quake.Fig2Table(ss) }},
		{"fig6_beta", func() (*report.Table, error) { return quake.Fig6Table(ss, quake.PECounts, method) }},
		{"fig7_properties", func() (*report.Table, error) { return quake.Fig7Table(ss, quake.PECounts, method) }},
		{"fig8_bisection", func() (*report.Table, error) { return quake.Fig8Table(largest, quake.PECounts, method) }},
		{"fig9_sustained_bw", func() (*report.Table, error) { return quake.Fig9Table(largest, quake.PECounts, method) }},
		{"fig11_half_bandwidth", func() (*report.Table, error) { return quake.Fig11Table(largest, quake.PECounts, method) }},
	}
	for _, j := range jobs {
		t, err := j.make()
		if err := save(j.name, t, err); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", j.name)
	}

	// Figure 10 needs a properties row.
	rows, err := quake.Properties(largest, quake.PECounts, method)
	if err != nil {
		return err
	}
	last := rows[len(rows)-1]
	bursts := []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}
	if err := save("fig10_tradeoff", quake.Fig10Table(last, 5e-9, bursts), nil); err != nil {
		return err
	}
	fmt.Println("wrote fig10_tradeoff")

	// EXFLOW comparison on the largest instance.
	cmp, err := quake.CompareEXFLOW(largest, last)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("EXFLOW vs %s/%d", largest.Name, last.P),
		"metric", "EXFLOW", "ours", "paper sf2/128")
	t.AddRow("KB/MFLOP", report.F(cmp.EXFLOWKBPerMFLOP, 0),
		report.F(cmp.QuakeKBPerMFLOP, 1), report.F(quake.PaperQuakeKBPerMFLOP, 0))
	t.AddRow("msgs/MFLOP", report.F(cmp.EXFLOWMsgsPerMFLOP, 0),
		report.F(cmp.QuakeMsgsPerMFLOP, 1), report.F(quake.PaperQuakeMsgsPerMFLOP, 0))
	t.AddRow("avg msg KB", report.F(cmp.EXFLOWAvgMsgKB, 1),
		report.F(cmp.QuakeAvgMsgKB, 1), report.F(quake.PaperQuakeAvgMsgKB, 1))
	if err := save("exflow_comparison", t, nil); err != nil {
		return err
	}
	fmt.Println("wrote exflow_comparison")

	// Preset machine efficiencies across the sweep.
	t2 := report.New("Modeled efficiency of preset machines on "+largest.Name,
		"subdomains", "T3D", "T3E", "current-100", "future-200")
	presets := []struct{ tf, tl, tw float64 }{
		{30e-9, 60e-6, 230e-9},
		{14e-9, 22e-6, 55e-9},
		{10e-9, 22e-6, 55e-9},
		{5e-9, 2e-6, 13e-9},
	}
	for _, r := range rows {
		cells := []string{fmt.Sprint(r.P)}
		for _, m := range presets {
			cells = append(cells, report.F(model.Efficiency(r.App(), m.tf, m.tl, m.tw), 3))
		}
		t2.AddRow(cells...)
	}
	if err := save("preset_efficiency", t2, nil); err != nil {
		return err
	}
	fmt.Println("wrote preset_efficiency")

	if !telemetry {
		return nil
	}
	// Measured pass: run the real goroutine-PE SMVP on the largest
	// scenario so the trace carries per-PE compute/exchange spans and
	// the metrics carry observed exchange volumes.
	if err := measuredPass(largest, pes); err != nil {
		return err
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := obs.Default.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot to %s\n", metricsPath)
	}
	tr := obs.StopTrace()
	if tr != nil {
		if err := report.PhaseSummary("Measured phase summary", tr.PhaseStats()).Render(os.Stdout); err != nil {
			return err
		}
		if tracePath != "" {
			f, err := os.Create(tracePath)
			if err != nil {
				return err
			}
			if err := tr.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", tracePath)
		}
	}
	return nil
}

// measuredReps is how many SMVPs the measured pass executes.
const measuredReps = 3

// measuredPass executes a few distributed SMVPs on goroutine PEs and
// prints the observed exchange volume against the partition profile's
// analytic C accounting.
func measuredPass(s quake.Scenario, pes int) error {
	m, err := s.Mesh()
	if err != nil {
		return err
	}
	pt, err := partition.PartitionMesh(m, pes, partition.RCB, 1)
	if err != nil {
		return err
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return err
	}
	dist, err := par.NewDist(m, quake.Material(), pt, pr)
	if err != nil {
		return err
	}
	defer dist.Close()
	x := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = float64(i%11) * 0.1
	}
	y := make([]float64, len(x))
	before := obs.Default.Snapshot()
	for i := 0; i < measuredReps; i++ {
		if _, err := dist.SMVP(y, x); err != nil {
			return err
		}
	}
	after := obs.Default.Snapshot()

	// Cross-check: per-PE observed bytes vs 8·C[i] per SMVP invocation.
	var observedMax, analyticMax int64
	for i := 0; i < pes; i++ {
		name := fmt.Sprintf("par.exchange.bytes.pe%d", i)
		observed := (after.Counters[name] - before.Counters[name]) / measuredReps
		if observed > observedMax {
			observedMax = observed
		}
		if c := 8 * pr.C[i]; c > analyticMax {
			analyticMax = c
		}
	}
	fmt.Printf("measured pass on %s/%d: observed max exchange %s B/SMVP, analytic 8·C_max %s B\n",
		s.Name, pes, report.Int(observedMax), report.Int(analyticMax))
	return nil
}
