// Command bench is quakebench: the end-to-end and per-layer benchmark
// of the quaked pipeline. It builds cmd/quaked, runs it as a child on a
// loopback port, drives it with seeded closed-loop solve traffic from at
// most nproc client goroutines, verifies every answer, and prints every
// metric by name and unit; the last line of standard output is the
// result as one JSON object. See README.md beside this file.
//
//	go run ./bench -workload warm_large -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload all -trace 1 -out bench/out/traced.json
//	go run ./bench -compare A.json B.json
//
// Run it from anywhere inside the module.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process exit, so that every child and scratch
// directory is cleaned up by defers on every path, a failed check and an
// interrupt included.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return runAt(ctx, args, stdout, stderr, fullSize, runner{setups: 3, shadowCap: 200, smvpReps: 200})
}

// runAt is run at a given sizing; the tests drive the whole command at
// smoke scale through it. A runner without an outDir writes to bench/out.
func runAt(ctx context.Context, args []string, stdout, stderr io.Writer, sz sizing, r runner) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed: right-hand sides, tuple order and fault placement follow from it")
	seconds := fs.Float64("seconds", 20, "length of the timed window (a traced run sends rate × seconds requests instead)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	out := fs.String("out", "", "result file to append this run to (read by -compare)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		return fail(fmt.Errorf("unexpected arguments %v, -trace %d or -seconds %g", fs.Args(), *trace, *seconds))
	}
	var selected []*workload
	for _, w := range workloads(sz) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}

	if r.outDir == "" {
		r.outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return fail(err)
	}
	r.log = stdout
	if r.bin, err = buildQuaked(ctx, r.outDir); err != nil {
		return fail(err)
	}
	code := 0
	for _, w := range selected {
		var rec *record
		if *trace == 1 {
			rec, err = r.traced(ctx, w, *seed, *seconds)
		} else {
			rec, err = r.endToEnd(ctx, w, *seed, *seconds)
		}
		if err != nil {
			code = fail(err)
		}
		if rec == nil {
			return code // nothing measured: no result line
		}
		if rec.Correct {
			if err := rec.complete(); err != nil {
				return fail(err)
			}
		}
		rec.print(stdout)
		if *out != "" {
			rec.Env = currentEnvironment(root)
			if err := appendResult(*out, rec); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintln(stdout, rec.contractLine())
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(fullSize) {
		names = append(names, w.name)
	}
	return names
}

// moduleRoot finds the directory holding this module's go.mod, walking
// up from the working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the repro module (no go.mod found); run from the repository")
		}
		dir = parent
	}
}
