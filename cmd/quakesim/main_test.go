package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestRunTelemetry(t *testing.T) {
	dir := t.TempDir()
	opt := base(20, 4)
	opt.trace = filepath.Join(dir, "trace.json")
	opt.metrics = filepath.Join(dir, "metrics.json")
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{opt.trace, opt.metrics} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
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
	if err := run(opt); err != nil {
		t.Fatal(err)
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
