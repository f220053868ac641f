// Command quakerepro regenerates the tables of results/ — the paper's
// figures, the model validations, and the ablation, sensitivity and
// extension studies — and writes them to a directory (default
// results/). Its job slice is internal/quake's Catalogue, which lists
// every table: -only picks tables by name, in the order given, and
// -out - prints them to stdout instead of writing files. Without -only it
// makes every table that carries no host timing; the two that do,
// ablation_ordering and eq12_measured_tf, are made only when named.
// -scenarios, -sweep and -method set what the figure tables cover; the
// other tables run fixed configurations.
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
//	quakerepro -only ablation_ordering,eq12_measured_tf -out -   # the timed tables
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
	scenarioList := fs.String("scenarios", "sf10,sf5,sf2", "comma-separated scenario names of the figure tables; the single-instance ones (figures 8-11, EXFLOW, presets) use the last")
	outDir := fs.String("out", "results", "output directory, or - to print the tables to stdout")
	format := fs.String("format", "text", "output format: text|md|csv")
	only := fs.String("only", "", "comma-separated table names to produce, in this order (default: every table without host timings)")
	sweep := fs.String("sweep", "4,8,16,32,64,128", "comma-separated PE counts of the figure tables' subdomain sweep")
	methodName := fs.String("method", "rcb", "partitioner of the figure tables: rcb|inertial|random|linear|stripes-z|multilevel")
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

	w := quake.Sweep{Scenarios: ss, PEs: pcounts, Method: method}
	var jobs []quake.Experiment
	if *only == "" {
		for _, e := range quake.Catalogue {
			if !e.Timed {
				jobs = append(jobs, e)
			}
		}
	} else {
		for _, name := range strings.Split(*only, ",") {
			i := slices.IndexFunc(quake.Catalogue, func(e quake.Experiment) bool { return e.Name == strings.TrimSpace(name) })
			if i < 0 {
				return fmt.Errorf("unknown table %q", name)
			}
			jobs = append(jobs, quake.Catalogue[i])
		}
	}
	if *outDir != "-" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, j := range jobs {
		t, err := j.Make(w)
		if err != nil {
			return fmt.Errorf("%s: %w", j.Name, err)
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
		if err := writeFile(filepath.Join(*outDir, j.Name+ext), func(w io.Writer) error { return render(t, w) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", j.Name)
	}

	if !telemetry {
		return nil
	}
	// Measured pass: run the real goroutine-PE SMVP on the largest
	// scenario so the trace carries per-PE compute/exchange spans and
	// the metrics carry observed exchange volumes.
	if err := measuredPass(stdout, ss[len(ss)-1], *pes, method); err != nil {
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
	pass, err := quake.MeasureSMVP(s, pes, method, measuredReps)
	if err != nil {
		return err
	}
	// Cross-check: per-PE observed bytes vs 8·C[i] per SMVP invocation.
	var observedMax, analyticMax int64
	for i := 0; i < pes; i++ {
		name := fmt.Sprintf("par.exchange.bytes.pe%d", i)
		observed := (pass.After.Counters[name] - pass.Before.Counters[name]) / measuredReps
		if observed > observedMax {
			observedMax = observed
		}
		if c := 8 * pass.Profile.C[i]; c > analyticMax {
			analyticMax = c
		}
	}
	fmt.Fprintf(stdout, "measured pass on %s/%d: observed max exchange %s B/SMVP, analytic 8·C_max %s B\n",
		s.Name, pes, report.Int(observedMax), report.Int(analyticMax))
	return nil
}
