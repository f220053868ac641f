package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/report"
)

// catalogue is every table quakerepro can produce.
var catalogue = []string{
	"fig2_mesh_sizes", "fig6_beta", "fig7_properties",
	"fig8_bisection", "fig9_sustained_bw", "fig10_tradeoff",
	"fig11_half_bandwidth", "exflow_comparison", "preset_efficiency",
}

func TestRunText(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenarios", "sf10", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range catalogue {
		fi, err := os.Stat(filepath.Join(dir, name+".txt"))
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
	if err := run([]string{"-scenarios", "sf10", "-out", dir, "-format", "md"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7_properties.md")); err != nil {
		t.Fatal(err)
	}
}

// TestRunCSV runs a non-default partitioner on a one-entry sweep, as
// CSV.
func TestRunCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenarios", "sf10", "-out", dir, "-format", "csv", "-sweep", "4", "-method", "multilevel"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7_properties.csv")); err != nil {
		t.Fatal(err)
	}
}

// TestRunOnlyStdout: -only with -out - prints exactly the named tables,
// in the order named, each followed by a blank line, and writes no
// file.
func TestRunOnlyStdout(t *testing.T) {
	var got, want bytes.Buffer
	if err := run([]string{"-scenarios", "sf10", "-sweep", "4,8", "-only", "fig7_properties, fig6_beta", "-out", "-"}, &got); err != nil {
		t.Fatal(err)
	}
	for _, build := range []func([]quake.Scenario, []int, partition.Method) (*report.Table, error){quake.Fig7Table, quake.Fig6Table} {
		tab, err := build([]quake.Scenario{quake.SF10}, []int{4, 8}, partition.RCB)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Render(&want); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
	}
	if got.String() != want.String() {
		t.Errorf("-only fig7_properties,fig6_beta -out - printed\n%s\nwant\n%s", got.String(), want.String())
	}
	if _, err := os.Stat("-"); err == nil {
		t.Error(`-out - created a directory named "-"`)
	}
}

func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		why  string
		args []string
	}{
		{"unknown format", []string{"-format", "xml"}},
		{"unknown scenario", []string{"-scenarios", "bogus"}},
		{"unknown table", []string{"-only", "fig7_properties,fig12"}},
		{"malformed sweep", []string{"-sweep", "4,oops"}},
		{"non-positive PE count", []string{"-sweep", "0"}},
		{"unknown method", []string{"-method", "magic"}},
	} {
		args := append([]string{"-scenarios", "sf10", "-out", t.TempDir()}, tc.args...)
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s accepted", tc.why)
		}
	}
}

// TestFig2PartitionsNothing: the mesh-size table reads no Figure 7 row,
// so a sweep no partitioner accepts does not stop it.
func TestFig2PartitionsNothing(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-scenarios", "sf10", "-only", "fig2_mesh_sizes", "-out", "-", "-sweep", "0"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got.Bytes(), []byte("sf10")) {
		t.Errorf("no sf10 row in:\n%s", got.String())
	}
}

// TestReproMatchesCommitted holds the generator to the committed files:
// the default sweep must reproduce every table it writes byte for byte.
func TestReproMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sf10,sf5,sf2 sweep")
	}
	dir := t.TempDir()
	if err := run([]string{"-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(catalogue) {
		t.Errorf("wrote %d tables, catalogue has %d", len(written), len(catalogue))
	}
	for _, e := range written {
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", e.Name()))
		if err != nil {
			t.Errorf("%s is not committed: %v", e.Name(), err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from results/%s:\n%s", e.Name(), e.Name(), got)
		}
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
	if err := run([]string{"-scenarios", "sf10", "-out", dir, "-trace", tracePath, "-metrics", metricsPath, "-pes", fmt.Sprint(pes)}, io.Discard); err != nil {
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
