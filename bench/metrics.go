package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json must list exactly these
// (TestBenchmarkJSONMatchesMetrics) and a run that fails to produce one
// of them is an error, so neither side can drift.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured with tracing off, the same five on every
// workload. What a caller of quaked sees: how long until the service is
// usable, how long a solve takes, how many it completes, what a solve
// costs in CPU, and how much memory the service needs.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_p50_ms", "ms"},
	{"solves_per_s", "1/s"},
	{"cpu_ms_per_solve", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run. The prefix is the module
// (internal/<layer>) the number belongs to; README.md says where each
// is read from and which end-to-end metric it should move.
var perLayerMetrics = []metricDef{
	{"http.solve_tail_ms", "ms"},
	{"http.solve_tail_pct", "%"},
	{"http.samples", "count"},
	{"http.overhead_ms", "ms"},
	{"http.response_bytes", "B"},

	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.pool_spawns", "count"},
	{"serve.pool_reuses", "count"},
	{"serve.pool_discards", "count"},
	{"serve.admit_rejected", "count"},
	{"serve.job_migrations", "count"},
	{"serve.job_iters_saved", "count"},
	{"serve.journal_records", "count"},
	{"serve.journal_bytes", "B"},
	{"serve.rehit_miss_share", "ratio"},
	{"serve.mb_per_key", "MB"},
	{"serve.decode_us", "us"},
	{"serve.engine_solve_ms", "ms"},
	{"serve.durable_overhead_ms", "ms"},
	{"serve.build_ms", "ms"},
	{"serve.certify_ms", "ms"},

	{"mesh.build_ms", "ms"},
	{"mesh.nodes", "count"},
	{"mesh.elems", "count"},

	{"partition.partition_ms", "ms"},
	{"partition.analyze_ms", "ms"},
	{"partition.cmax_words", "count"},
	{"partition.bmax_blocks", "count"},
	{"partition.load_imbalance", "ratio"},

	{"comm.schedule_ms", "ms"},
	{"comm.aggregate_ms", "ms"},

	{"fem.assemble_ms", "ms"},

	{"regress.fingerprint_ms", "ms"},
	{"regress.vector_us", "us"},

	{"par.newdist_ms", "ms"},
	{"par.smvp_us", "us"},
	{"par.smvp_compute_us", "us"},
	{"par.smvp_exchange_us", "us"},
	{"par.smvp_dispatch_us", "us"},
	{"par.lambda_compute", "ratio"},
	{"par.flops_per_smvp", "count"},
	{"par.mflops", "Mflop/s"},
	{"par.exchange_bytes_per_smvp", "B"},
	{"par.exchange_msgs_per_smvp", "count"},
	{"par.smvp_calls", "count"},
	{"par.phase_compute_ms", "ms"},
	{"par.phase_exchange_ms", "ms"},

	{"sparse.mulvec_us", "us"},
	{"sparse.flops", "count"},
	{"sparse.bytes_computed", "B"},
	{"sparse.flops_per_byte", "flop/B"},
	{"sparse.mflops", "Mflop/s"},

	{"solver.iterations", "count"},
	{"solver.iter_us", "us"},
	{"solver.cg_ms", "ms"},
	{"solver.apply_ms", "ms"},
	{"solver.vector_ms", "ms"},
	{"solver.apply_share", "ratio"},

	{"recover.ckpt_encode_us", "us"},
	{"recover.ckpt_save_us", "us"},
	{"recover.ckpt_bytes", "B"},
	{"recover.mesh_id_ms", "ms"},
	{"recover.shrink_ms", "ms"},
	{"recover.grow_ms", "ms"},
	{"recover.supervise_overhead_ms", "ms"},
	{"recover.ckpt_writes", "count"},
	{"recover.shrinks", "count"},
	{"recover.grows", "count"},
	{"recover.resumes", "count"},
	{"recover.ckpt_write_ms_total", "ms"},

	{"fault.injected_kill", "count"},

	{"proc.cpu_user_s", "s"},
	{"proc.cpu_sys_s", "s"},
	{"proc.alloc_mb_per_solve", "MB"},
	{"proc.mallocs_per_solve", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},

	{"trace.overhead_share", "ratio"},

	{"budget.request_ms", "ms"},
	{"budget.serve_ms", "ms"},
	{"budget.build_ms", "ms"},
	{"budget.par_ms", "ms"},
	{"budget.solver_ms", "ms"},
	{"budget.recover_ms", "ms"},
	{"budget.regress_ms", "ms"},
	{"budget.unaccounted_ms", "ms"},
	{"budget.accounted_share", "ratio"},
}

// exactMetrics repeat exactly between traced runs with equal seed and
// request counts: they count work, not time. -compare requires them
// equal, which catches a change that silently alters the work done.
var exactMetrics = []string{
	"http.samples",
	"serve.cache_hits", "serve.cache_misses",
	"mesh.nodes", "mesh.elems",
	"partition.cmax_words", "partition.bmax_blocks",
	"par.flops_per_smvp", "par.exchange_bytes_per_smvp", "par.exchange_msgs_per_smvp", "par.smvp_calls",
	"sparse.flops",
	"solver.iterations",
	"recover.ckpt_writes", "recover.shrinks", "recover.grows",
	"fault.injected_kill",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload as kept in a result file. The last
// line of standard output is its contract subset (see contractLine).
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Clients   int                    `json:"clients"`
	Samples   int                    `json:"samples"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Env       *environment           `json:"env,omitempty"`
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

// set stores a metric under its declared unit. A value that is not a
// finite number is a bug in the bench, not a measurement.
func (r *record) set(name string, v float64) {
	unit, ok := units[name]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %q = %v (declared: %v)", name, v, ok))
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *record) get(name string) float64 { return r.Metrics[name].Value }

// complete reports which declared metrics of the run's kind are missing.
func (r *record) complete() error {
	defs := endToEndMetrics
	if r.Trace {
		defs = perLayerMetrics
	}
	var missing []string
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 || len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: run produced %d metrics, want %d; missing %v", r.Workload, len(r.Metrics), len(defs), missing)
	}
	return nil
}

// print writes every metric by name with its unit, in declared order.
func (r *record) print(w io.Writer) {
	defs := endToEndMetrics
	if r.Trace {
		defs = perLayerMetrics
	}
	fmt.Fprintf(w, "%s seed=%d: ops_attempted %d, ops_failed %d, %d latency samples; load: 1 process, %d closed-loop client goroutine(s)/connection(s), nproc %d\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Samples, r.Clients, runtime.NumCPU())
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// contractLine is the object the acceptance driver reads from the last
// line of standard output.
func (r *record) contractLine() string {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

// environment records where a result file was measured, so a number is
// never read without its host width and code version.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GitDirty   bool   `json:"git_dirty"`
}

func currentEnvironment(root string) *environment {
	env := &environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: "unknown"}
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		env.GitCommit = commit
		status, err := git("status", "--porcelain")
		env.GitDirty = err != nil || status != ""
	}
	return env
}

// resultFile is what -out writes and -compare reads: every run made
// into that file, in order.
type resultFile struct {
	Runs []*record `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds a run to the result file at path, creating it.
func appendResult(path string, r *record) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
