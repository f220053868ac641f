// Command quakerepro regenerates the paper's figure tables and writes
// them to a directory (default results/), without going through the
// benchmark harness. Its job slice is the catalogue of every table a
// command can produce: -only picks tables by name, in the order given,
// and -out - prints them to stdout instead of writing files.
//
// With -trace and/or -metrics it also executes a measured distributed
// SMVP pass on the largest requested scenario, so the written telemetry
// contains real per-PE compute/exchange spans and exchanged-byte
// counters that can be cross-checked against the analytic C_max
// accounting.
//
// Usage:
//
//	quakerepro                    # the committed sweep: sf10,sf5,sf2 into results/
//	quakerepro -only fig7_properties,fig6_beta -out - -sweep 4,8 -method random -format csv
//	quakerepro -scenarios sf10 -trace trace.json -metrics metrics.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quakerepro:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("quakerepro", flag.ExitOnError)
	scenarioList := fs.String("scenarios", "sf10,sf5,sf2", "comma-separated scenario names; the single-instance tables (figures 8-11, EXFLOW, presets) use the last")
	outDir := fs.String("out", "results", "output directory, or - to print the tables to stdout")
	format := fs.String("format", "text", "output format: text|md|csv")
	only := fs.String("only", "", "comma-separated table names to produce, in this order (default: every table)")
	sweep := fs.String("sweep", "4,8,16,32,64,128", "comma-separated PE counts of the subdomain sweep")
	methodName := fs.String("method", "rcb", "partitioner: rcb|inertial|random|linear|stripes-z|multilevel")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON file here")
	metricsPath := fs.String("metrics", "", "write a metrics snapshot JSON file here")
	pes := fs.Int("pes", 8, "PE count of the measured pass run for -trace/-metrics")
	httpAddr := fs.String("http", "", "serve live observability on this address while the figures regenerate (Prometheus /metrics, /metrics.json, /flight, expvar, pprof)")
	fs.Parse(args) // ExitOnError: a bad flag has already exited

	if *httpAddr != "" {
		obs.SetEnabled(true)
		addr, shutdown, err := export.Serve(*httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		defer shutdown(context.Background())
		fmt.Fprintf(stdout, "observability: http://%s/\n", addr)
	}
	telemetry := *tracePath != "" || *metricsPath != ""
	if telemetry {
		obs.SetEnabled(true)
		obs.StartTrace()
		defer func() {
			obs.SetEnabled(false)
			obs.StopTrace()
		}()
	}
	var ss []quake.Scenario
	for _, name := range strings.Split(*scenarioList, ",") {
		s, err := quake.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ss = append(ss, s)
	}
	largest := ss[len(ss)-1]
	var pcounts []int
	for _, f := range strings.Split(*sweep, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -sweep entry %q", f)
		}
		pcounts = append(pcounts, p)
	}
	method, err := partition.MethodByName(*methodName)
	if err != nil {
		return err
	}

	var ext string
	var render func(*report.Table, io.Writer) error
	switch *format {
	case "text":
		ext, render = ".txt", (*report.Table).Render
	case "md":
		ext, render = ".md", (*report.Table).Markdown
	case "csv":
		ext, render = ".csv", (*report.Table).CSV
	default:
		return fmt.Errorf("unknown format %q (want text, md, or csv)", *format)
	}

	// Figure 10 and the EXFLOW comparison describe one instance: the
	// largest scenario at the sweep's last PE count, filled in below.
	var last quake.PropsRow
	type job struct {
		name string
		make func() (*report.Table, error)
	}
	jobs := []job{
		{"fig2_mesh_sizes", func() (*report.Table, error) { return quake.Fig2Table(ss) }},
		{"fig6_beta", func() (*report.Table, error) { return quake.Fig6Table(ss, pcounts, method) }},
		{"fig7_properties", func() (*report.Table, error) { return quake.Fig7Table(ss, pcounts, method) }},
		{"fig8_bisection", func() (*report.Table, error) { return quake.Fig8Table(largest, pcounts, method) }},
		{"fig9_sustained_bw", func() (*report.Table, error) { return quake.Fig9Table(largest, pcounts, method) }},
		{"fig10_tradeoff", func() (*report.Table, error) {
			return quake.Fig10Table(last, 5e-9, []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}), nil
		}},
		{"fig11_half_bandwidth", func() (*report.Table, error) { return quake.Fig11Table(largest, pcounts, method) }},
		{"exflow_comparison", func() (*report.Table, error) {
			cmp, err := quake.CompareEXFLOW(largest, last)
			if err != nil {
				return nil, err
			}
			return quake.EXFLOWTable(cmp), nil
		}},
		{"preset_efficiency", func() (*report.Table, error) { return quake.PresetEfficiencyTable(largest, pcounts, method) }},
	}
	if *only != "" {
		all := jobs
		jobs = nil
		for _, name := range strings.Split(*only, ",") {
			i := slices.IndexFunc(all, func(j job) bool { return j.name == strings.TrimSpace(name) })
			if i < 0 {
				return fmt.Errorf("unknown table %q", name)
			}
			jobs = append(jobs, all[i])
		}
	}
	// Every table but Figure 2 reads these rows (Properties caches them).
	rows, err := quake.Properties(largest, pcounts, method)
	if err != nil {
		return err
	}
	last = rows[len(rows)-1]
	if *outDir != "-" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, j := range jobs {
		t, err := j.make()
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if *outDir == "-" {
			if err := render(t, stdout); err != nil {
				return err
			}
			if *format != "csv" { // aligned tables are separated by a blank line
				fmt.Fprintln(stdout)
			}
			continue
		}
		if err := writeFile(filepath.Join(*outDir, j.name+ext), func(w io.Writer) error { return render(t, w) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", j.name)
	}

	if !telemetry {
		return nil
	}
	// Measured pass: run the real goroutine-PE SMVP on the largest
	// scenario so the trace carries per-PE compute/exchange spans and
	// the metrics carry observed exchange volumes.
	if err := measuredPass(stdout, largest, *pes, method); err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := writeFile(*metricsPath, obs.Default.Snapshot().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote metrics snapshot to %s\n", *metricsPath)
	}
	tr := obs.StopTrace()
	if tr != nil {
		if err := report.PhaseSummary("Measured phase summary", tr.PhaseStats()).Render(stdout); err != nil {
			return err
		}
		if *tracePath != "" {
			if err := writeFile(*tracePath, tr.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", *tracePath)
		}
	}
	return nil
}

// writeFile creates path, hands it to write, and returns the first
// error, Close's included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measuredReps is how many SMVPs the measured pass executes.
const measuredReps = 3

// measuredPass executes a few distributed SMVPs on goroutine PEs and
// prints the observed exchange volume against the partition profile's
// analytic C accounting.
func measuredPass(stdout io.Writer, s quake.Scenario, pes int, method partition.Method) error {
	m, err := s.Mesh()
	if err != nil {
		return err
	}
	pt, err := partition.PartitionMesh(m, pes, method, 1)
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
	fmt.Fprintf(stdout, "measured pass on %s/%d: observed max exchange %s B/SMVP, analytic 8·C_max %s B\n",
		s.Name, pes, report.Int(observedMax), report.Int(analyticMax))
	return nil
}
