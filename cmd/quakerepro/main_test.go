package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/quake"
	"repro/internal/report"
)

// untimed is every catalogue table a run without -only makes.
func untimed() []string {
	var names []string
	for _, e := range quake.Catalogue {
		if !e.Timed {
			names = append(names, e.Name)
		}
	}
	return names
}

// TestRunText: a run without -only writes every untimed table of the
// catalogue, and nothing else.
func TestRunText(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenarios", "sf10", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	names := untimed()
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if written, err := os.ReadDir(dir); err != nil || len(written) != len(names) {
		t.Errorf("wrote %d files (%v), want the %d untimed tables", len(written), err, len(names))
	}
}

func TestRunMarkdown(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenarios", "sf10", "-only", "fig7_properties", "-out", dir, "-format", "md"}, io.Discard); err != nil {
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
	if err := run([]string{"-scenarios", "sf10", "-only", "fig7_properties", "-out", dir, "-format", "csv", "-sweep", "4", "-method", "multilevel"}, io.Discard); err != nil {
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
// the default sweep must write every untimed table of the catalogue, and
// only those, byte for byte as results/ holds them.
func TestReproMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sf10,sf5,sf2 sweep")
	}
	dir := t.TempDir()
	if err := run([]string{"-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	names := untimed()
	if written, err := os.ReadDir(dir); err != nil || len(written) != len(names) {
		t.Errorf("wrote %d files (%v), the catalogue has %d untimed tables", len(written), err, len(names))
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Errorf("%s was not written: %v", name, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name+".txt"))
		if err != nil {
			t.Errorf("%s is not committed: %v", name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from results/%s.txt:\n%s", name, name, got)
		}
	}
}

// TestTimedTablesKeepTheirShape: the two timed tables, which no default
// run makes and no check diffs, still come out with the committed
// title, columns and row labels — only the measured numbers differ.
func TestTimedTablesKeepTheirShape(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-only", "ablation_ordering,eq12_measured_tf", "-out", "-"}, &got); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, name := range []string{"ablation_ordering", "eq12_measured_tf"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "results", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	// shape keeps of each table what a timing does not move: the title
	// up to its measured number, the column names and each row's label.
	shape := func(text []byte) []string {
		var out []string
		for _, table := range strings.Split(strings.TrimSpace(string(text)), "\n\n") {
			lines := strings.Split(table, "\n")
			rule := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "---") })
			if rule < 1 {
				return append(out, "not a table: "+table)
			}
			title, _, _ := strings.Cut(strings.Join(lines[:rule-1], "\n"), " vs measured ")
			out = append(out, title, strings.Join(strings.Fields(lines[rule-1]), " "))
			for _, row := range lines[rule+1:] {
				out = append(out, strings.Fields(row)[0])
			}
		}
		return out
	}
	if g, w := shape(got.Bytes()), shape(want); len(g) < 10 || !slices.Equal(g, w) {
		t.Errorf("timed tables changed shape:\n%s\nwant\n%s", strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}
