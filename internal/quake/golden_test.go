package quake

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/name byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s changed.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func render(t *testing.T, tab *report.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestGoldenFig7SF10 pins the entire pipeline end to end: octree →
// mesh → RCB partition → analysis must reproduce the committed sf10
// Figure 7 table byte for byte. Everything upstream is deterministic,
// so any diff means behavior changed; regenerate deliberately with
// `go test ./internal/quake -run Golden -update`.
func TestGoldenFig7SF10(t *testing.T) {
	tab, err := Fig7Table([]Scenario{SF10}, []int{4, 16, 64}, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7_sf10.golden", render(t, tab))
}

// TestGoldenBetaSF10 pins the β table the same way.
func TestGoldenBetaSF10(t *testing.T) {
	tab, err := Fig6Table([]Scenario{SF10}, []int{4, 16, 64}, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6_sf10.golden", render(t, tab))
}

// TestGoldenAggSweepSF10 pins the one production use of the two-level
// replay, cmd/quakenet -agg: the sf10/16 RCB sweep over node sizes 1, 2,
// 4 and 8 on quakenet's 300 MB/s links and 100 ns hops, rendered as the
// table quakenet prints and followed by every replayed exchange time in
// full precision, so a change of one bit in either replay shows.
func TestGoldenAggSweepSF10(t *testing.T) {
	rows, err := AggSweep(SF10, 16, partition.RCB, []int{1, 2, 4, 8},
		network.Config{LinkBytesPerSec: 300e6, HopLatency: 100e-9})
	if err != nil {
		t.Fatal(err)
	}
	got := render(t, report.AggregationSummary("two-level exchange: sf10/16, rcb", rows))
	for _, r := range rows {
		got += fmt.Sprintf("node size %d: flat %s s, aggregated %s s\n", r.NodeSize,
			strconv.FormatFloat(r.FlatComm, 'g', -1, 64), strconv.FormatFloat(r.AggComm, 'g', -1, 64))
	}
	checkGolden(t, "aggsweep_sf10_p16.golden", got)
}
