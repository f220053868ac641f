package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/quake"
)

func TestRunText(t *testing.T) {
	dir := t.TempDir()
	if err := run("sf10", dir, "text", "", "", 8, ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig2_mesh_sizes.txt", "fig6_beta.txt", "fig7_properties.txt",
		"fig8_bisection.txt", "fig9_sustained_bw.txt", "fig10_tradeoff.txt",
		"fig11_half_bandwidth.txt", "exflow_comparison.txt", "preset_efficiency.txt",
	} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

func TestRunMarkdown(t *testing.T) {
	dir := t.TempDir()
	if err := run("sf10", dir, "md", "", "", 8, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7_properties.md")); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("sf10", dir, "csv", "", "", 8, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7_properties.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("sf10", t.TempDir(), "xml", "", "", 8, ""); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run("bogus", t.TempDir(), "text", "", "", 8, ""); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestRunTelemetry is the end-to-end acceptance check: quakerepro with
// -trace/-metrics emits valid Chrome trace JSON with distinct
// compute/exchange spans per PE, and per-PE exchanged-byte counters
// that match the partition profile's analytic C accounting.
func TestRunTelemetry(t *testing.T) {
	const pes = 4
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")

	before := obs.Default.Snapshot()
	if err := run("sf10", dir, "text", tracePath, metricsPath, pes, ""); err != nil {
		t.Fatal(err)
	}

	// --- metrics: observed exchange bytes vs analytic C accounting ---
	data, err := os.ReadFile(metricsPath)
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
	// The measured pass runs measuredReps SMVPs; each moves 8·C[i] bytes
	// through PE i.
	for i := 0; i < pes; i++ {
		name := fmt.Sprintf("par.exchange.bytes.pe%d", i)
		delta := snap.Counters[name] - before.Counters[name]
		want := measuredReps * 8 * pr.C[i]
		if delta != want {
			t.Errorf("%s: observed %d bytes, analytic %d", name, delta, want)
		}
	}

	// --- trace: valid JSON, compute+exchange spans on every PE track ---
	data, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	computeTids := make(map[int]bool)
	exchangeTids := make(map[int]bool)
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		switch e.Cat {
		case "compute":
			computeTids[e.Tid] = true
		case "exchange":
			exchangeTids[e.Tid] = true
		}
	}
	if len(computeTids) < pes || len(exchangeTids) < pes {
		t.Fatalf("want compute and exchange spans on %d distinct PE tracks, got %d/%d",
			pes, len(computeTids), len(exchangeTids))
	}
}
