package regress

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/quake"
	rec "repro/internal/recover"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "regenerate the golden fingerprints")

const goldenFile = "testdata/fingerprints.txt"

// goldenPCounts are the pinned subdomain counts. The scenarios are
// sf10 and sf5: the issue's sf2 (~2M elements) takes minutes to mesh,
// far beyond unit-test budget, so the two cheap family members stand
// in — they exercise the identical octree/partition/model code paths.
var goldenPCounts = []int{4, 8}

// fingerprints computes the full golden map: mesh, partition, and
// exchange-schedule hashes per scenario/p, the rendered Figure 6 and
// Figure 7 model tables, and the sf10 numerics (numericFingerprints).
func fingerprints(t *testing.T) map[string]uint64 {
	t.Helper()
	got := make(map[string]uint64)
	for _, s := range []quake.Scenario{quake.SF10, quake.SF5} {
		m, err := s.Mesh()
		if err != nil {
			t.Fatal(err)
		}
		got["mesh/"+s.Name] = Mesh(m)
		for _, p := range goldenPCounts {
			for _, method := range []partition.Method{partition.RCB, partition.Multilevel} {
				key := fmt.Sprintf("%s/p%d/%s", s.Name, p, method)
				pt, err := partition.PartitionMesh(m, p, method, 1)
				if err != nil {
					t.Fatal(err)
				}
				got["partition/"+key] = Partition(pt)
				pr, err := partition.Analyze(m, pt)
				if err != nil {
					t.Fatal(err)
				}
				sched, err := comm.FromMatrix(pr.Msg)
				if err != nil {
					t.Fatal(err)
				}
				got["schedule/"+key] = Schedule(sched)
				// Shrink-to-survivors is pure integer remapping, so its
				// partition and re-derived schedule are golden-stable:
				// pin the p−1 rebuild after losing PE 3.
				if p == 8 && method == partition.RCB {
					spt, err := rec.ShrinkPartition(m, pt, 3)
					if err != nil {
						t.Fatal(err)
					}
					spr, err := partition.Analyze(m, spt)
					if err != nil {
						t.Fatal(err)
					}
					ssched, err := comm.FromMatrix(spr.Msg)
					if err != nil {
						t.Fatal(err)
					}
					got["shrink/"+key+"/dead3/partition"] = Partition(spt)
					got["shrink/"+key+"/dead3/schedule"] = Schedule(ssched)
					// Expand-to-recovered is the deterministic dual:
					// pin regrowing the shrunk partition back onto a
					// revived slot 3.
					gpt, _, err := rec.GrowPartition(m, spt, 3)
					if err != nil {
						t.Fatal(err)
					}
					gpr, err := partition.Analyze(m, gpt)
					if err != nil {
						t.Fatal(err)
					}
					gsched, err := comm.FromMatrix(gpr.Msg)
					if err != nil {
						t.Fatal(err)
					}
					got["grow/"+key+"/revive3/partition"] = Partition(gpt)
					got["grow/"+key+"/revive3/schedule"] = Schedule(gsched)
					// The rebalance pass is deterministic for fixed loads:
					// pin migrating off a synthetically doubled straggler
					// (PE 0 billed at twice its element count).
					loads := make([]int64, pt.P)
					for q, sz := range pt.Sizes() {
						loads[q] = int64(sz) * 1000
					}
					loads[0] *= 2
					rpt, _, err := rec.RebalancePartition(m, pt, loads, 2)
					if err != nil {
						t.Fatal(err)
					}
					rpr, err := partition.Analyze(m, rpt)
					if err != nil {
						t.Fatal(err)
					}
					rsched, err := comm.FromMatrix(rpr.Msg)
					if err != nil {
						t.Fatal(err)
					}
					got["rebalance/"+key+"/hot0/partition"] = Partition(rpt)
					got["rebalance/"+key+"/hot0/schedule"] = Schedule(rsched)
				}
			}
		}
		f6, err := quake.Fig6Table([]quake.Scenario{s}, goldenPCounts, partition.RCB)
		if err != nil {
			t.Fatal(err)
		}
		got["table/fig6/"+s.Name] = Table(f6)
		f7, err := quake.Fig7Table([]quake.Scenario{s}, goldenPCounts, partition.RCB)
		if err != nil {
			t.Fatal(err)
		}
		got["table/fig7/"+s.Name] = Table(f7)
	}
	numericFingerprints(t, got)
	return got
}

// TestGoldenFingerprints pins the octree→mesh→partition→schedule→model
// pipeline against testdata/fingerprints.txt. On mismatch it names the
// drifted stage; regenerate deliberately with
// `go test ./internal/regress -update` and review the diff.
func TestGoldenFingerprints(t *testing.T) {
	got := fingerprints(t)
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("# golden pipeline fingerprints; regenerate: go test ./internal/regress -update\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %016x\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenFile)
		return
	}

	want := readGolden(t)
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: in golden file but no longer computed (stale key? rerun -update)", k)
			continue
		}
		if g != w {
			t.Errorf("%s: fingerprint %016x, golden %016x — upstream output drifted; "+
				"if intentional, rerun with -update and review", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: computed but missing from golden file (rerun -update)", k)
		}
	}
}

func readGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with `go test ./internal/regress -update`)", err)
	}
	defer f.Close()
	want := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		v, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatalf("malformed golden value in %q: %v", line, err)
		}
		want[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFingerprintSensitivity demonstrates the detection property the
// golden suite relies on: the smallest possible perturbation at each
// stage — one coordinate nudged by one ULP (exactly what a one-line
// mesher change would do everywhere), one element reassigned, one
// message grown by a word, one table cell edited — flips the
// corresponding fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	m, err := quake.SF10.Build() // private copy: Mesh() caches a shared one
	if err != nil {
		t.Fatal(err)
	}
	base := Mesh(m)
	m.Coords[0].X = math.Nextafter(m.Coords[0].X, math.Inf(1))
	if Mesh(m) == base {
		t.Error("1-ULP coordinate perturbation not detected")
	}
	m.Coords[0].X = math.Nextafter(m.Coords[0].X, math.Inf(-1))
	if Mesh(m) != base {
		t.Error("fingerprint not restored after undoing the perturbation")
	}

	pt, err := partition.PartitionMesh(m, 4, partition.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pbase := Partition(pt)
	pt.ElemPE[0] = (pt.ElemPE[0] + 1) % int32(pt.P)
	if Partition(pt) == pbase {
		t.Error("single element reassignment not detected")
	}

	s, err := comm.FromMatrix([][]int64{{0, 6, 3}, {6, 0, 9}, {3, 9, 0}})
	if err != nil {
		t.Fatal(err)
	}
	sbase := Schedule(s)
	s.Out[0][0].Words++
	if Schedule(s) == sbase {
		t.Error("one-word message growth not detected")
	}

	tab := report.New("t", "a", "b")
	tab.AddRow("1", "2")
	tbase := Table(tab)
	tab.Rows[0][1] = "3"
	if Table(tab) == tbase {
		t.Error("table cell edit not detected")
	}
}
