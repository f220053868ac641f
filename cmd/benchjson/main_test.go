package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkDistMulVec-8         	     100	    123456 ns/op	      64 B/op	       2 allocs/op
BenchmarkFig7Properties-8     	       2	 510000000 ns/op
BenchmarkTfLocalSMVP/sf10-8   	      50	  20000.5 ns/op
--- BENCH: BenchmarkSMVPShare-8
    bench_test.go:280: smvp share 0.85
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkDistMulVec":       123456,
		"BenchmarkFig7Properties":   510000000,
		"BenchmarkTfLocalSMVP/sf10": 20000.5,
	}
	if len(rep.NsPerOp) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(rep.NsPerOp), len(want), rep.NsPerOp)
	}
	for name, ns := range want {
		if rep.NsPerOp[name] != ns {
			t.Errorf("%s = %v, want %v", name, rep.NsPerOp[name], ns)
		}
	}
	if rep.GoVersion == "" || rep.Date == "" {
		t.Error("missing run metadata")
	}
	if rep.GOMAXPROCS != 8 {
		t.Errorf("GOMAXPROCS = %d, want 8 (from the -8 name suffix)", rep.GOMAXPROCS)
	}
	if rep.NumCPU <= 0 {
		t.Errorf("NumCPU = %d, want > 0", rep.NumCPU)
	}
	if got := rep.BytesPerOp["BenchmarkDistMulVec"]; got != 64 {
		t.Errorf("BytesPerOp = %v, want 64", got)
	}
	if got := rep.AllocsPerOp["BenchmarkDistMulVec"]; got != 2 {
		t.Errorf("AllocsPerOp = %v, want 2", got)
	}
	if _, ok := rep.AllocsPerOp["BenchmarkFig7Properties"]; ok {
		t.Error("allocs recorded for a line without -benchmem columns")
	}
}

// TestParseNoSuffix: output from a GOMAXPROCS=1 run has no -N suffix;
// the report then falls back to this process's setting rather than
// recording zero.
func TestParseNoSuffix(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkX \t 10 \t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS <= 0 {
		t.Errorf("GOMAXPROCS = %d, want positive fallback", rep.GOMAXPROCS)
	}
	if rep.BytesPerOp != nil || rep.AllocsPerOp != nil {
		t.Error("memory maps should be omitted when no -benchmem columns exist")
	}
}

// TestGitMetadata: run inside this repository, the report must carry
// HEAD's full hash; the dirty flag just has to be a sane bool (the
// test tree may legitimately be mid-edit).
func TestGitMetadata(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	rep, err := parse(strings.NewReader("BenchmarkX \t 10 \t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GitCommit) != 40 {
		t.Fatalf("GitCommit = %q, want a 40-hex hash", rep.GitCommit)
	}
	for _, c := range rep.GitCommit {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("GitCommit %q contains non-hex %q", rep.GitCommit, c)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, out, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.NsPerOp["BenchmarkDistMulVec"] != 123456 {
		t.Fatalf("round trip lost data: %+v", rep)
	}
}

// TestObsOverhead: Enabled/Disabled benchmark pairs from the telemetry
// package collapse into an obs_overhead entry; unpaired names do not.
func TestObsOverhead(t *testing.T) {
	const out = `BenchmarkHistogramEnabled-8 	 1000000 	 12.5 ns/op
BenchmarkHistogramDisabled-8 	 1000000 	 2.5 ns/op
BenchmarkPEAccumEnabled-8 	 1000000 	 8.0 ns/op
BenchmarkFlightRecord-8 	 1000000 	 50 ns/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ObsOverhead) != 1 {
		t.Fatalf("ObsOverhead = %v, want exactly the Histogram pair", rep.ObsOverhead)
	}
	ov, ok := rep.ObsOverhead["Histogram"]
	if !ok || ov.EnabledNs != 12.5 || ov.DisabledNs != 2.5 || ov.DeltaNs != 10 {
		t.Errorf("Histogram overhead = %+v, want {12.5 2.5 10}", ov)
	}
}

// TestPhasePercentiles: a telemetry snapshot produced by the real
// registry folds into the report as histogram percentiles.
func TestPhasePercentiles(t *testing.T) {
	r := obs.NewRegistry()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	h := r.Histogram("par.phase.compute.hist_ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "metrics.json")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, out, snap, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	pp, ok := rep.Phases["par.phase.compute.hist_ns"]
	if !ok {
		t.Fatalf("phase_percentiles missing the histogram: %+v", rep.Phases)
	}
	if pp.Count != 100 || pp.MaxNS != 100 {
		t.Errorf("count=%d max=%d, want 100/100", pp.Count, pp.MaxNS)
	}
	if pp.P50NS <= 0 || pp.P95NS < pp.P50NS || float64(pp.MaxNS) < pp.P95NS {
		t.Errorf("percentile ordering broken: p50=%g p95=%g max=%d", pp.P50NS, pp.P95NS, pp.MaxNS)
	}

	// A snapshot with no observations is an explicit error, not a
	// silently empty report section.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"counters":{},"gauges":{},"histograms":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, out, empty, ""); err == nil {
		t.Error("want error for a snapshot with no histogram observations")
	}
}

// TestRecoverySection: recover.* counters and the rebalance-λ gauge in
// a -metrics snapshot fold into the report's recovery section; a
// snapshot without recovery activity omits it entirely.
func TestRecoverySection(t *testing.T) {
	r := obs.NewRegistry()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	r.Histogram("par.phase.compute.hist_ns").Observe(42)
	r.Counter("recover.shrinks").Add(2)
	r.Counter("recover.grows").Add(2)
	r.Counter("recover.migrations").Add(3)
	r.Counter("recover.resumes").Add(5)
	r.Gauge("recover.rebalance.lambda").Set(1.07)

	dir := t.TempDir()
	snap := filepath.Join(dir, "metrics.json")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, out, snap, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Recovery == nil {
		t.Fatal("recovery section missing from the report")
	}
	got := *rep.Recovery
	want := RecoveryStats{Shrinks: 2, Grows: 2, Migrations: 3, Resumes: 5, RebalanceLambda: 1.07}
	if got != want {
		t.Errorf("recovery = %+v, want %+v", got, want)
	}

	// A quiet snapshot (histograms only) omits the section.
	quiet := obs.NewRegistry()
	quiet.Histogram("par.phase.compute.hist_ns").Observe(7)
	qs := filepath.Join(dir, "quiet.json")
	qf, err := os.Create(qs)
	if err != nil {
		t.Fatal(err)
	}
	if err := quiet.Snapshot().WriteJSON(qf); err != nil {
		t.Fatal(err)
	}
	qf.Close()
	if err := run(in, out, qs, ""); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	rep = Report{}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Recovery != nil {
		t.Errorf("quiet snapshot produced a recovery section: %+v", rep.Recovery)
	}
}

// kernelOutput carries the ablation and local-operator sub-benchmarks and
// both CG solves, the full population of the report's kernels section,
// and the host-scaling pairs.
const kernelOutput = `BenchmarkAblationKernels/csr-8 	 200 	 5000 ns/op
BenchmarkAblationKernels/bcsr-8 	 200 	 2400 ns/op
BenchmarkAblationKernels/sym-8 	 200 	 1600 ns/op
BenchmarkAblationKernels/sym_avx2-8 	 200 	 1100 ns/op
BenchmarkLocalKernels/bcsr-8 	 200 	 1200 ns/op
BenchmarkLocalKernels/sym-8 	 200 	 750 ns/op
BenchmarkLocalKernels/sym_avx2-8 	 200 	 600 ns/op
BenchmarkHostScaling/fp/g=1-8 	 50 	 2800000 ns/op
BenchmarkHostScaling/fp/g=2-8 	 50 	 2800000 ns/op
BenchmarkHostScaling/stream/g=1-8 	 50 	 2000000 ns/op 	 14.00 GB/s
BenchmarkHostScaling/stream/g=2-8 	 50 	 1000000 ns/op 	 28.00 GB/s
BenchmarkAblationKernels/csr_seg-8 	 200 	 4800 ns/op
BenchmarkAblationKernels/fused-8 	 200 	 2000 ns/op
BenchmarkDistCGSolveSerial-8 	 10 	 40000000 ns/op
BenchmarkDistCGSolveResident-8 	 10 	 30000000 ns/op
BenchmarkSetup/partition_rcb-8 	 20 	 17000000 ns/op
BenchmarkSetup/newdist-8 	 20 	 38000000 ns/op
BenchmarkDurable/ckpt_save_recycled-8 	 300 	 900000 ns/op
BenchmarkDurable/journal_append-8 	 300 	 450000 ns/op
`

// TestKernelsSection: the kernel benchmarks fold into the kernels map
// under their short keys, and a -prev snapshot attaches speedup deltas.
func TestKernelsSection(t *testing.T) {
	dir := t.TempDir()
	prev := filepath.Join(dir, "BENCH_2026-08-05.json")
	prevRep := map[string]any{"ns_per_op": map[string]float64{
		"BenchmarkAblationKernels/csr": 6000,
		"BenchmarkDistCGSolveSerial":   44000000,
		"BenchmarkSetup/newdist":       76000000,

		"BenchmarkDurable/ckpt_save_recycled": 1800000,
	}}
	raw, _ := json.Marshal(prevRep)
	if err := os.WriteFile(prev, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(kernelOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, out, "", prev); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"csr", "bcsr", "sym", "sym_avx2", "csr_seg", "fused",
		"local_bcsr", "local_sym", "local_sym_avx2", "cg_serial", "cg_resident"} {
		if _, ok := rep.Kernels[key]; !ok {
			t.Errorf("kernels section missing %q: %+v", key, rep.Kernels)
		}
	}
	csr := rep.Kernels["csr"]
	if csr.NsPerOp != 5000 || csr.PrevNsPerOp != 6000 || csr.SpeedupVsPrev != 1.2 {
		t.Errorf("csr = %+v, want {5000 6000 1.2}", csr)
	}
	// No entry in the previous snapshot → current-only, no phantom deltas.
	if f := rep.Kernels["fused"]; f.PrevNsPerOp != 0 || f.SpeedupVsPrev != 0 {
		t.Errorf("fused should have no prev delta, got %+v", f)
	}
	if cg := rep.Kernels["cg_serial"]; cg.SpeedupVsPrev != 1.1 {
		t.Errorf("cg_serial speedup = %v, want 1.1", cg.SpeedupVsPrev)
	}
	// The host's scaling pairs sit in a block of their own.
	if h := rep.Host; len(h) != 4 || h["fp_g2"].NsPerOp != 2800000 || h["stream_g1"].NsPerOp != 2000000 || h["stream_g2"].NsPerOp != 1000000 {
		t.Errorf("host block = %+v, want the four HostScaling entries", h)
	}
	// The setup stages form a section of their own, keyed the same way.
	if nd := rep.Setup["newdist"]; nd.NsPerOp != 38000000 || nd.PrevNsPerOp != 76000000 || nd.SpeedupVsPrev != 2 {
		t.Errorf("setup newdist = %+v, want {38000000 76000000 2}", nd)
	}
	if pr := rep.Setup["partition_rcb"]; pr.NsPerOp != 17000000 || pr.PrevNsPerOp != 0 {
		t.Errorf("setup partition_rcb = %+v, want current-only 17000000", pr)
	}
	if _, ok := rep.Kernels["newdist"]; ok || len(rep.Setup) != 2 {
		t.Errorf("sections mixed: kernels %+v, setup %+v", rep.Kernels, rep.Setup)
	}
	// So do the terms of the durable path.
	if sv := rep.Durable["ckpt_save_recycled"]; sv.NsPerOp != 900000 || sv.PrevNsPerOp != 1800000 || sv.SpeedupVsPrev != 2 {
		t.Errorf("durable ckpt_save_recycled = %+v, want {900000 1800000 2}", sv)
	}
	if ja := rep.Durable["journal_append"]; ja.NsPerOp != 450000 || ja.PrevNsPerOp != 0 || len(rep.Durable) != 2 {
		t.Errorf("durable section = %+v, want journal_append current-only beside ckpt_save_recycled", rep.Durable)
	}
}

// TestKernelsPrevAutoDiscovery: with no -prev, the newest BENCH_*.json
// in the cwd is used — skipping the file being written, so a same-day
// rerun still compares against the real predecessor.
func TestKernelsPrevAutoDiscovery(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	older := map[string]any{"ns_per_op": map[string]float64{"BenchmarkAblationKernels/csr": 10000}}
	raw, _ := json.Marshal(older)
	if err := os.WriteFile("BENCH_2026-08-01.json", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The out file already exists (rerun): it must not be chosen as prev.
	if err := os.WriteFile("BENCH_2026-08-08.json", []byte(`{"ns_per_op":{"BenchmarkAblationKernels/csr":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("bench.txt", []byte(kernelOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("bench.txt", "BENCH_2026-08-08.json", "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("BENCH_2026-08-08.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if csr := rep.Kernels["csr"]; csr.PrevNsPerOp != 10000 || csr.SpeedupVsPrev != 2 {
		t.Errorf("auto-discovered prev wrong: %+v, want prev=10000 speedup=2", csr)
	}
}

func TestRunNoResults(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, filepath.Join(dir, "out.json"), "", ""); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}
