package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/quake"
)

// base returns options as the flag defaults would produce them, ready
// for direct run() calls.
func base(steps, pes int) *options {
	return &options{scenario: "sf10", steps: steps, pes: pes, every: 10}
}

func TestRun(t *testing.T) {
	opt := base(40, 4)
	opt.seis = filepath.Join(t.TempDir(), "seis.csv")
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(opt.seis)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty seismogram file")
	}
}

// stdoutOf runs f with os.Stdout sent into a pipe and returns what it
// printed with f's error.
func stdoutOf(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		printed <- string(b)
	}()
	prev := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = prev }()
	ferr := f()
	w.Close()
	return <-printed, ferr
}

// TestRunTelemetry is the telemetry acceptance check over the full
// application: -trace/-metrics emit valid JSON, the trace holds compute
// and exchange spans on every PE's track, and each PE's exchanged-byte
// counter moved exactly 8·C[i] per distributed SMVP — the partition
// profile's analytic C accounting.
func TestRunTelemetry(t *testing.T) {
	const steps, pes = 20, 4
	dir := t.TempDir()
	opt := base(steps, pes)
	opt.trace = filepath.Join(dir, "trace.json")
	opt.metrics = filepath.Join(dir, "metrics.json")
	before := obs.Default.Snapshot()
	if err := run(opt); err != nil {
		t.Fatal(err)
	}

	// --- metrics: observed exchange bytes vs analytic C accounting ---
	data, err := os.ReadFile(opt.metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	m, err := quake.SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.PartitionMesh(m, pes, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	// The timed SMVPs and one kernel per distributed step; each moves
	// 8·C[i] bytes through PE i.
	const smvps = smvpReps + steps
	for i := 0; i < pes; i++ {
		name := fmt.Sprintf("par.exchange.bytes.pe%d", i)
		if delta, want := snap.Counters[name]-before.Counters[name], smvps*8*pr.C[i]; delta != want {
			t.Errorf("%s: observed %d bytes over %d SMVPs, analytic %d", name, delta, smvps, want)
		}
	}

	// --- trace: valid JSON, compute+exchange spans on every PE track ---
	data, err = os.ReadFile(opt.trace)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	tids := map[string]map[int]bool{"compute": {}, "exchange": {}}
	for _, e := range file.TraceEvents {
		if e.Ph == "X" && tids[e.Cat] != nil {
			tids[e.Cat][e.Tid] = true
		}
	}
	if len(tids["compute"]) < pes || len(tids["exchange"]) < pes {
		t.Fatalf("want compute and exchange spans on %d distinct PE tracks, got %d/%d",
			pes, len(tids["compute"]), len(tids["exchange"]))
	}
}

func TestRunErrors(t *testing.T) {
	opt := base(10, 2)
	opt.scenario = "bogus"
	if err := run(opt); err == nil {
		t.Error("unknown scenario accepted")
	}
	opt = base(10, 2)
	opt.faults = "garble:pe=0"
	if err := run(opt); err == nil {
		t.Error("malformed fault plan accepted")
	}
}

// TestRunFaultSoak drives the -faults path end to end: seeded exchange
// corruption aimed at an owner PE must end in an answer certified within
// 10·tol on the disarmed operator, and the run must still exit cleanly.
func TestRunFaultSoak(t *testing.T) {
	opt := base(20, 4)
	opt.faults = "seed:3;corrupt:pe=1->0,iter=4,bit=62"
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
}

// TestRunFaultPanicContained: a plan that panics a PE mid-solve must end
// the run with the documented containment report, not an error or hang.
func TestRunFaultPanicContained(t *testing.T) {
	opt := base(20, 4)
	opt.faults = "panic:pe=1,iter=3"
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
}

// TestRunRecovery drives graceful degradation end to end from the CLI
// layer: a kill plan with -checkpoint set must shrink to the survivors
// and finish, leaving durable snapshots behind; a second run with
// -resume must restart from those snapshots and also finish.
func TestRunRecovery(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ck")
	opt := base(20, 4)
	opt.faults = "kill:pe=2,iter=8"
	opt.checkpoint = ckdir
	opt.every = 5
	out, err := stdoutOf(t, func() error { return run(opt) })
	if err != nil {
		t.Fatal(err)
	}
	// The shrunk answer is certified on the disarmed survivors' operator.
	if !strings.Contains(out, "lost PE(s) [2] mid-solve; shrank 1 time(s)") {
		t.Fatalf("no shrink reported:\n%s", out)
	}
	cert := regexp.MustCompile(`gated solve on 3 PEs: \d+ iterations, residual \S+, certificate (\S+), restarts \d+`).FindStringSubmatch(out)
	if cert == nil {
		t.Fatalf("no certificate line for the shrunk answer:\n%s", out)
	}
	if c, err := strconv.ParseFloat(cert[1], 64); err != nil || !(c <= 1e-7) {
		t.Fatalf("shrunk answer's certificate %s, want <= 10·tol = 1e-7", cert[1])
	}
	entries, err := os.ReadDir(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".qck") {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Fatal("no durable checkpoints written")
	}
	// After the shrink the snapshots record the survivor width (3), so
	// the restarted process must be launched at -pes 3.
	ropt := base(20, 3)
	ropt.resume = ckdir
	if err := run(ropt); err != nil {
		t.Fatal(err)
	}
	// A resume at the wrong width must be refused, not crash.
	wopt := base(20, 4)
	wopt.resume = ckdir
	if err := run(wopt); err == nil {
		t.Fatal("resume at the wrong PE count accepted")
	}
}

// TestRunElasticRecovery drives the kill→shrink→revive→grow round trip
// from the CLI layer with rebalancing armed: the run must finish at
// full width, leave durable snapshots behind, and a -resume at the
// original PE count must restart from them and also finish (the
// snapshot records the regrown width).
func TestRunElasticRecovery(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ck")
	opt := base(20, 4)
	opt.faults = "kill:pe=2,iter=8;revive:pe=2,iter=16"
	opt.checkpoint = ckdir
	opt.every = 4
	opt.rebalance = true
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	ropt := base(20, 4)
	ropt.resume = ckdir
	ropt.rebalance = true
	if err := run(ropt); err != nil {
		t.Fatal(err)
	}
}

// TestBadFlagCombos pins the up-front CLI validation: every bad
// combination must be refused before any meshing starts, and the valid
// ones must pass.
func TestBadFlagCombos(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"checkpoint-ok", []string{"-checkpoint", filepath.Join(dir, "ck"), "-every", "5"}, true},
		{"resume-ok", []string{"-resume", dir}, true},
		{"unknown-flag", []string{"-bogus"}, false},
		{"positional-args", []string{"stray"}, false},
		{"zero-steps", []string{"-steps", "0"}, false},
		{"negative-pes", []string{"-pes", "-1"}, false},
		{"malformed-plan", []string{"-faults", "garble:pe=0"}, false},
		{"checkpoint-every-zero", []string{"-checkpoint", dir, "-every", "0"}, false},
		{"checkpoint-every-negative", []string{"-checkpoint", dir, "-every", "-3"}, false},
		{"every-without-checkpoint", []string{"-every", "5"}, false},
		{"resume-missing-dir", []string{"-resume", filepath.Join(dir, "no-such-dir")}, false},
		{"resume-not-a-dir", []string{"-resume", file}, false},
		{"rebalance-ok", []string{"-rebalance"}, true},
		{"rebalance-with-revive-plan", []string{"-rebalance", "-faults", "kill:pe=1,iter=5;revive:pe=1,iter=9"}, true},
		{"revive-without-iter", []string{"-faults", "revive:pe=1"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			opt, err := parseOptions(tc.args, &buf)
			if err == nil {
				err = opt.validate()
			}
			if tc.ok && err != nil {
				t.Fatalf("valid combination refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid combination accepted")
			}
		})
	}
}
