// Command quakerepro regenerates the tables of results/ — the paper's
// figures, the model validations, and the ablation, sensitivity and
// extension studies — and writes them to a directory (default
// results/). Its job slice is internal/quake's Catalogue, which lists
// every table: -only picks tables by name, in the order given, and
// -out - prints them to stdout instead of writing files. Without -only it
// makes every table that carries no host timing; the two that do,
// ablation_ordering and eq12_measured_tf, are made only when named.
// -scenarios, -sweep and -method set what the figure tables cover; the
// other tables run fixed configurations. Telemetry of a running
// application (trace, metrics, live endpoints) is quakesim's.
//
// Usage:
//
//	quakerepro                    # the committed sweep: sf10,sf5,sf2 into results/
//	quakerepro -only ablation_ordering,eq12_measured_tf -out -   # the timed tables
//	quakerepro -only fig7_properties,fig6_beta -out - -sweep 4,8 -method random -format csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

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
	fs.Parse(args) // ExitOnError: a bad flag has already exited

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
