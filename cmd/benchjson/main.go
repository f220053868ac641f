// Command benchjson converts `go test -bench` output into a
// machine-readable JSON file mapping benchmark name to ns/op — plus,
// when the run used -benchmem, B/op and allocs/op — so the repository's
// performance and allocation trajectory can be tracked commit over
// commit (the `make bench-json` target writes BENCH_<date>.json this
// way).
//
// Usage:
//
// With -metrics it additionally folds a telemetry snapshot (the JSON
// written by `quakerepro -metrics` or served at /metrics.json) into the
// report as per-histogram p50/p95/max, so phase-latency percentiles
// ride along with the ns/op numbers. Enabled/Disabled benchmark pairs
// from internal/obs are summarized under obs_overhead, pinning the
// per-operation cost of leaving telemetry on.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -out BENCH_2026-08-05.json
//	benchjson -in bench_output.txt -metrics metrics.json -out BENCH_2026-08-05.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Report is the file's shape: run metadata plus per-benchmark metrics.
// GOMAXPROCS is the processor width the benchmarks themselves ran at,
// recovered from the -N suffix go test appends to benchmark names (the
// earlier behavior — recording benchjson's own GOMAXPROCS — said
// nothing about the run being described). NumCPU records the host
// width so a throttled run is visible.
type Report struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	// GitCommit and GitDirty pin the exact source state the benchmarks
	// ran against, so a BENCH_<date>.json can be matched back to a
	// commit (and a dirty tree is never mistaken for one). Both are
	// omitted when git is unavailable or the cwd is not a repository.
	GitCommit  string `json:"git_commit,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Host is what num_cpu does not say: what a second goroutine bought,
	// on the machine and at the time of the run, for an FP-port-bound
	// loop and for a 27 MB memory stream (BenchmarkHostScaling; keys
	// fp_g1, fp_g2, stream_g1, stream_g2 — a pair's ratio is the
	// scaling). Two CPUs that are hyperthreads of one core read 1× and
	// 2×; two cores 2× and whatever the memory system gives.
	Host        map[string]KernelStat `json:"host,omitempty"`
	NsPerOp     map[string]float64    `json:"ns_per_op"`
	BytesPerOp  map[string]float64    `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64    `json:"allocs_per_op,omitempty"`
	// ObsOverhead pairs every BenchmarkXxxEnabled/BenchmarkXxxDisabled
	// couple found in the run — the telemetry primitives benchmark both
	// states — so the cost of leaving collection on is tracked per
	// commit alongside the kernel numbers.
	ObsOverhead map[string]Overhead `json:"obs_overhead,omitempty"`
	// Phases summarizes the histograms of a -metrics telemetry snapshot
	// (quakerepro -metrics, or a saved /metrics.json) as latency
	// percentiles, keyed by metric name.
	Phases map[string]PhasePercentiles `json:"phase_percentiles,omitempty"`
	// Recovery summarizes the elastic-recovery activity of a -metrics
	// telemetry snapshot — shrink/grow/migration/resume counts and the
	// last measured compute imbalance λ — so a soak run's report shows
	// what the supervisor absorbed. Omitted when the snapshot recorded
	// no recovery activity.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
	// Kernels is the A/B view of the SMVP kernel variants and the
	// serial-reference vs PE-resident CG solves, keyed by short kernel
	// name (csr, bcsr, sym, sym_avx2, csr_seg, fused on the global sf5
	// matrix; local_bcsr, local_sym, local_sym_avx2 on the two sf5/p2 local
	// operators at once; cg_serial, cg_resident). When a previous
	// BENCH_*.json is available (-prev, or auto-discovered), each entry
	// carries that snapshot's ns/op and the speedup against it, so a
	// kernel regression is visible in the report itself, not only by
	// diffing files.
	Kernels map[string]KernelStat `json:"kernels,omitempty"`
	// Setup is the same view of the cold-build stages (BenchmarkSetup on
	// sf10/p16), keyed by stage: partition_rcb, partition_inertial,
	// analyze, schedule, lumped_mass, assemble, newdist.
	Setup map[string]KernelStat `json:"setup,omitempty"`
	// Durable is the same view of the terms of the durable path
	// (BenchmarkDurable on the sf10/p4 snapshot, 834 KB), keyed by term:
	// ckpt_encode, ckpt_save_new, ckpt_save_recycled, journal_append,
	// supervise_bare, supervise_durable.
	Durable map[string]KernelStat `json:"durable,omitempty"`
}

// KernelStat is one kernel's (or setup stage's) A/B entry.
type KernelStat struct {
	NsPerOp float64 `json:"ns_per_op"`
	// PrevNsPerOp and SpeedupVsPrev compare against the previous
	// snapshot; both are absent when no previous file carries the
	// benchmark. SpeedupVsPrev > 1 means this run is faster.
	PrevNsPerOp   float64 `json:"prev_ns_per_op,omitempty"`
	SpeedupVsPrev float64 `json:"speedup_vs_prev,omitempty"`
}

// kernelBenchmarks maps benchmark names to the short kernel keys of the
// report's kernels section.
var kernelBenchmarks = map[string]string{
	"BenchmarkAblationKernels/csr":      "csr",
	"BenchmarkAblationKernels/bcsr":     "bcsr",
	"BenchmarkAblationKernels/sym":      "sym",
	"BenchmarkAblationKernels/sym_avx2": "sym_avx2",
	"BenchmarkAblationKernels/csr_seg":  "csr_seg",
	"BenchmarkAblationKernels/fused":    "fused",
	"BenchmarkLocalKernels/bcsr":        "local_bcsr",
	"BenchmarkLocalKernels/sym":         "local_sym",
	"BenchmarkLocalKernels/sym_avx2":    "local_sym_avx2",
	"BenchmarkDistCGSolveSerial":        "cg_serial",
	"BenchmarkDistCGSolveResident":      "cg_resident",
}

// hostBenchmarks maps benchmark names to the keys of the report's host
// section.
var hostBenchmarks = map[string]string{
	"BenchmarkHostScaling/fp/g=1":     "fp_g1",
	"BenchmarkHostScaling/fp/g=2":     "fp_g2",
	"BenchmarkHostScaling/stream/g=1": "stream_g1",
	"BenchmarkHostScaling/stream/g=2": "stream_g2",
}

// setupBenchmarks maps benchmark names to the stage keys of the report's
// setup section.
var setupBenchmarks = map[string]string{
	"BenchmarkSetup/partition_rcb":      "partition_rcb",
	"BenchmarkSetup/partition_inertial": "partition_inertial",
	"BenchmarkSetup/analyze":            "analyze",
	"BenchmarkSetup/schedule":           "schedule",
	"BenchmarkSetup/lumped_mass":        "lumped_mass",
	"BenchmarkSetup/assemble":           "assemble",
	"BenchmarkSetup/newdist":            "newdist",
}

// durableBenchmarks maps benchmark names to the term keys of the report's
// durable section.
var durableBenchmarks = map[string]string{
	"BenchmarkDurable/ckpt_encode":        "ckpt_encode",
	"BenchmarkDurable/ckpt_save_new":      "ckpt_save_new",
	"BenchmarkDurable/ckpt_save_recycled": "ckpt_save_recycled",
	"BenchmarkDurable/journal_append":     "journal_append",
	"BenchmarkDurable/supervise_bare":     "supervise_bare",
	"BenchmarkDurable/supervise_durable":  "supervise_durable",
}

// RecoveryStats is the report's recovery section, read from the
// recover.* metrics of a telemetry snapshot.
type RecoveryStats struct {
	Shrinks         int64   `json:"shrinks"`
	Grows           int64   `json:"grows"`
	Migrations      int64   `json:"migrations"`
	Resumes         int64   `json:"resumes"`
	RebalanceLambda float64 `json:"rebalance_lambda,omitempty"`
}

// Overhead is one enabled-vs-disabled benchmark pair.
type Overhead struct {
	EnabledNs  float64 `json:"enabled_ns"`
	DisabledNs float64 `json:"disabled_ns"`
	DeltaNs    float64 `json:"delta_ns"`
}

// PhasePercentiles are the rank-interpolated percentiles of one
// telemetry histogram.
type PhasePercentiles struct {
	Count int64   `json:"count"`
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	MaxNS int64   `json:"max_ns"`
}

// benchLine matches one benchmark result line, e.g.
// "BenchmarkDistMulVec-8   100   123456 ns/op   64 B/op   2 allocs/op",
// capturing the name, the GOMAXPROCS suffix, ns/op, and the rest.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// memCols matches the -benchmem columns in a result line's tail.
var (
	bytesCol  = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsCol = regexp.MustCompile(`([0-9.]+) allocs/op`)
)

func main() {
	in := flag.String("in", "", "input file (default: stdin)")
	out := flag.String("out", "", "output JSON file (default: stdout)")
	metrics := flag.String("metrics", "", "telemetry snapshot JSON to fold in as phase percentiles")
	prev := flag.String("prev", "", "previous BENCH_*.json for kernel speedup deltas (default: newest BENCH_*.json in cwd, excluding -out)")
	flag.Parse()

	if err := run(*in, *out, *metrics, *prev); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(inPath, outPath, metricsPath, prevPath string) error {
	var r io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(r)
	if err != nil {
		return err
	}
	if len(rep.NsPerOp) == 0 {
		return fmt.Errorf("no benchmark results found in input")
	}
	if metricsPath != "" {
		snap, err := loadSnapshot(metricsPath)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		if rep.Phases, err = phasePercentiles(metricsPath, snap); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		rep.Recovery = recoveryStats(snap)
	}
	prevNs := loadPrevNs(prevPath, outPath)
	rep.Host = sectionStats(rep.NsPerOp, prevNs, hostBenchmarks)
	rep.Kernels = sectionStats(rep.NsPerOp, prevNs, kernelBenchmarks)
	rep.Setup = sectionStats(rep.NsPerOp, prevNs, setupBenchmarks)
	rep.Durable = sectionStats(rep.NsPerOp, prevNs, durableBenchmarks)
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parse scans benchmark output. When the same benchmark appears more
// than once (several packages, -count>1), the last result wins. The
// report's GOMAXPROCS is the widest -N suffix seen, falling back to
// this process's setting when the output carries no suffix.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		NsPerOp:     make(map[string]float64),
		BytesPerOp:  make(map[string]float64),
		AllocsPerOp: make(map[string]float64),
	}
	rep.GitCommit, rep.GitDirty = gitInfo()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		rep.NsPerOp[m[1]] = ns
		if procs, err := strconv.Atoi(m[2]); err == nil && procs > rep.GOMAXPROCS {
			rep.GOMAXPROCS = procs
		}
		if bm := bytesCol.FindStringSubmatch(m[4]); bm != nil {
			if v, err := strconv.ParseFloat(bm[1], 64); err == nil {
				rep.BytesPerOp[m[1]] = v
			}
		}
		if am := allocsCol.FindStringSubmatch(m[4]); am != nil {
			if v, err := strconv.ParseFloat(am[1], 64); err == nil {
				rep.AllocsPerOp[m[1]] = v
			}
		}
	}
	if rep.GOMAXPROCS == 0 {
		rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	}
	if len(rep.BytesPerOp) == 0 {
		rep.BytesPerOp = nil
	}
	if len(rep.AllocsPerOp) == 0 {
		rep.AllocsPerOp = nil
	}
	rep.ObsOverhead = obsOverhead(rep.NsPerOp)
	return rep, sc.Err()
}

// obsOverhead pairs BenchmarkXxxEnabled with BenchmarkXxxDisabled and
// keys the result by the bare Xxx; unpaired benchmarks are skipped.
func obsOverhead(ns map[string]float64) map[string]Overhead {
	out := make(map[string]Overhead)
	for name, en := range ns {
		if !strings.HasSuffix(name, "Enabled") {
			continue
		}
		base := strings.TrimSuffix(name, "Enabled")
		dis, ok := ns[base+"Disabled"]
		if !ok {
			continue
		}
		key := strings.TrimPrefix(base, "Benchmark")
		out[key] = Overhead{EnabledNs: en, DisabledNs: dis, DeltaNs: en - dis}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sectionStats extracts one A/B section (kernels, setup, durable) from the parsed
// ns/op map: the benchmarks named in keys, under their short keys, each
// with the previous snapshot's ns/op and the speedup against it when
// prevNs carries the benchmark. A nil prevNs — no previous file, or an
// unreadable one — degrades to current-only entries: the section must
// never block writing a fresh snapshot.
func sectionStats(ns, prevNs map[string]float64, keys map[string]string) map[string]KernelStat {
	out := make(map[string]KernelStat)
	for bench, key := range keys {
		v, ok := ns[bench]
		if !ok {
			continue
		}
		st := KernelStat{NsPerOp: v}
		if pv := prevNs[bench]; pv > 0 {
			st.PrevNsPerOp = pv
			st.SpeedupVsPrev = pv / v
		}
		out[key] = st
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// loadPrevNs resolves and reads the previous snapshot's ns_per_op map,
// returning nil when there is none. prevPath == "" auto-discovers the
// newest BENCH_*.json in the working directory (skipping the file being
// written, so a same-day rerun compares against the real predecessor).
func loadPrevNs(prevPath, outPath string) map[string]float64 {
	if prevPath == "" {
		matches, err := filepath.Glob("BENCH_*.json")
		if err != nil {
			return nil
		}
		sort.Strings(matches) // BENCH_YYYY-MM-DD.json: lexical order is date order
		for i := len(matches) - 1; i >= 0; i-- {
			if outPath != "" && filepath.Clean(matches[i]) == filepath.Clean(outPath) {
				continue
			}
			prevPath = matches[i]
			break
		}
		if prevPath == "" {
			return nil
		}
	}
	raw, err := os.ReadFile(prevPath)
	if err != nil {
		return nil
	}
	var prev struct {
		NsPerOp map[string]float64 `json:"ns_per_op"`
	}
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil
	}
	return prev.NsPerOp
}

// loadSnapshot reads and parses a telemetry snapshot file.
func loadSnapshot(path string) (*obs.Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &obs.Snapshot{}
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, err
	}
	return s, nil
}

// phasePercentiles summarizes every non-empty histogram of a telemetry
// snapshot as p50/p95/max.
func phasePercentiles(path string, s *obs.Snapshot) (map[string]PhasePercentiles, error) {
	out := make(map[string]PhasePercentiles)
	for name, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		out[name] = PhasePercentiles{
			Count: h.Count,
			P50NS: h.Quantile(0.50),
			P95NS: h.Quantile(0.95),
			MaxNS: h.Max,
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no histogram observations in snapshot", path)
	}
	return out, nil
}

// recoveryStats extracts the elastic-recovery section from a telemetry
// snapshot, nil when the run recorded no recovery activity at all.
func recoveryStats(s *obs.Snapshot) *RecoveryStats {
	r := &RecoveryStats{
		Shrinks:         s.Counters["recover.shrinks"],
		Grows:           s.Counters["recover.grows"],
		Migrations:      s.Counters["recover.migrations"],
		Resumes:         s.Counters["recover.resumes"],
		RebalanceLambda: s.Gauges["recover.rebalance.lambda"],
	}
	if r.Shrinks == 0 && r.Grows == 0 && r.Migrations == 0 && r.Resumes == 0 && r.RebalanceLambda == 0 {
		return nil
	}
	return r
}

// gitInfo returns HEAD's hash and whether the working tree differs
// from it. Both degrade to zero values when git is missing or the cwd
// is outside a repository, so the tool stays usable on a bare
// benchmark box.
func gitInfo() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	commit = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return commit, err == nil && len(strings.TrimSpace(string(st))) > 0
}
