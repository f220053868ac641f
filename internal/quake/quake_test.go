package quake

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/report"
)

var testPCounts = []int{4, 8, 16}

func TestByNameAndFamily(t *testing.T) {
	for _, name := range []string{"sf10", "sf5", "sf2", "sf1", "sf1s"} {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ByName("sf3"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestBuildRejectsUnconfigured(t *testing.T) {
	if _, err := (Scenario{Name: "x"}).Build(); err == nil {
		t.Error("unconfigured scenario accepted")
	}
}

// TestCalibrationTracksPaperSizes verifies the PPW calibration: the
// generated sf10 and sf5 meshes land within a factor of ~1.5 of the
// paper's Figure 2 node counts, and halving the period grows the mesh
// by roughly the paper's factor of eight.
func TestCalibrationTracksPaperSizes(t *testing.T) {
	var nodes [2]float64
	for i, s := range []Scenario{SF10, SF5} {
		m, err := s.Mesh()
		if err != nil {
			t.Fatal(err)
		}
		st := m.ComputeStats()
		nodes[i] = float64(st.Nodes)
		ratio := float64(st.Nodes) / float64(s.PaperNodes)
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("%s: %d nodes vs paper %d (ratio %.2f)", s.Name, st.Nodes, s.PaperNodes, ratio)
		}
		// The rules of thumb from Section 2 must hold approximately.
		if st.AvgDegree < 9 || st.AvgDegree > 17 {
			t.Errorf("%s: average degree %.1f, paper says ~13", s.Name, st.AvgDegree)
		}
		if st.BytesPerNode < 500 || st.BytesPerNode > 2500 {
			t.Errorf("%s: %.0f bytes/node, paper says ~1.2 KB", s.Name, st.BytesPerNode)
		}
	}
	// Halving the period should grow the mesh substantially (the paper's
	// asymptotic rule is 8×; octree depth quantization makes individual
	// steps land anywhere from ~3× to ~9× while the multi-step family
	// trend stays near 8× per halving — see EXPERIMENTS.md).
	growth := nodes[1] / nodes[0]
	if growth < 2.5 || growth > 16 {
		t.Errorf("sf5/sf10 node growth = %.1f, expected roughly 3-16x", growth)
	}
}

func TestMeshCached(t *testing.T) {
	a, err := SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SF10.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("mesh not cached")
	}
}

func TestPropertiesRows(t *testing.T) {
	rows, err := Properties(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(testPCounts) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.P != testPCounts[i] || r.Scenario != "sf10" {
			t.Errorf("row %d mislabeled: %+v", i, r)
		}
		if r.F <= 0 || r.Cmax <= 0 || r.Bmax <= 0 || r.Mavg <= 0 {
			t.Errorf("row %d has non-positive properties: %+v", i, r)
		}
		if r.Cmax%6 != 0 {
			t.Errorf("row %d: Cmax %d not divisible by 6", i, r.Cmax)
		}
		if r.Bmax%2 != 0 {
			t.Errorf("row %d: Bmax %d odd", i, r.Bmax)
		}
		if r.Beta < 1 || r.Beta > 2 {
			t.Errorf("row %d: β = %g", i, r.Beta)
		}
		if i > 0 {
			prev := rows[i-1]
			if r.Ratio >= prev.Ratio {
				t.Errorf("F/Cmax not decreasing: p=%d %.1f -> p=%d %.1f",
					prev.P, prev.Ratio, r.P, r.Ratio)
			}
			if r.F >= prev.F {
				t.Errorf("F not decreasing with P")
			}
		}
	}
	// M_avg falls overall with P (the paper's table has local ties, so
	// only the endpoints are compared).
	if last, first := rows[len(rows)-1].Mavg, rows[0].Mavg; last >= first {
		t.Errorf("M_avg did not fall: p=%d %.0f vs p=%d %.0f",
			rows[0].P, first, rows[len(rows)-1].P, last)
	}
}

func TestPropertiesCached(t *testing.T) {
	a, err := Properties(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Properties(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cached row %d differs", i)
		}
	}
}

func TestFig2Table(t *testing.T) {
	tab, err := Fig2Table([]Scenario{SF10, SF5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"sf10", "sf5", "7,294", "30,169"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6And7Tables(t *testing.T) {
	t6, err := Fig6Table([]Scenario{SF10, SF5}, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != len(testPCounts) {
		t.Errorf("Fig6 rows = %d", len(t6.Rows))
	}
	t7, err := Fig7Table([]Scenario{SF10, SF5}, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.Rows) != 5*len(testPCounts) {
		t.Errorf("Fig7 rows = %d", len(t7.Rows))
	}
	var sb strings.Builder
	if err := t7.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"F/C_max", "B_max", "M_avg"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Fig7 output missing %q", want)
		}
	}
}

func TestFig8And9Tables(t *testing.T) {
	t8, err := Fig8Table(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	t9, err := Fig9Table(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	want := len(testPCounts) * len(FigEfficiencies)
	if len(t8.Rows) != want || len(t9.Rows) != want {
		t.Errorf("rows: fig8 %d fig9 %d, want %d", len(t8.Rows), len(t9.Rows), want)
	}
}

func TestFig10Curve(t *testing.T) {
	rows, err := Properties(SF10, []int{16}, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	curve := Fig10Curve(r.App(), 0.9, 5e-9, []float64{1, 10, 100, 1000, 1e6})
	// Latency budget must increase with burst bandwidth and eventually
	// become feasible.
	feasibleSeen := false
	for i := 1; i < len(curve); i++ {
		if curve[i].LatencySec < curve[i-1].LatencySec {
			t.Errorf("latency budget decreased with more bandwidth")
		}
	}
	for _, pt := range curve {
		if pt.LatencySec > 0 {
			feasibleSeen = true
		}
	}
	if !feasibleSeen {
		t.Error("no feasible point on curve")
	}
	// The 4-word regime must demand strictly lower latency at the same
	// burst bandwidth.
	fixed := Fig10Curve(r.App().WithFixedBlocks(4), 0.9, 5e-9, []float64{1e6})
	if fixed[0].LatencySec >= curve[len(curve)-1].LatencySec {
		t.Errorf("4-word latency budget %g not below maximal %g",
			fixed[0].LatencySec, curve[len(curve)-1].LatencySec)
	}
	tab := Fig10Table(r, 5e-9, []float64{10, 100, 1000})
	if len(tab.Rows) != 2*len(FigEfficiencies)*3 {
		t.Errorf("Fig10 table rows = %d", len(tab.Rows))
	}
}

func TestFig11Points(t *testing.T) {
	points, err := Fig11Points(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	want := len(testPCounts) * 2 * len(FigEfficiencies) * len(FigTfs)
	if len(points) != want {
		t.Fatalf("points = %d, want %d", len(points), want)
	}
	for _, p := range points {
		if p.BurstMBps <= 0 || p.Latency <= 0 {
			t.Errorf("non-positive point %+v", p)
		}
		// The fixed-block latency must be far below the maximal-block
		// latency for the same configuration.
		if p.Regime == "4-word" && p.Latency > 1e-4 {
			t.Errorf("4-word latency %g suspiciously high", p.Latency)
		}
	}
	tab, err := Fig11Table(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != want {
		t.Errorf("Fig11 table rows = %d", len(tab.Rows))
	}
}

func TestCompareEXFLOW(t *testing.T) {
	rows, err := Properties(SF10, []int{16}, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompareEXFLOW(SF10, rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.QuakeKBPerMFLOP <= 0 || c.QuakeMsgsPerMFLOP <= 0 || c.QuakeAvgMsgKB <= 0 {
		t.Errorf("non-positive metrics: %+v", c)
	}
	if c.QuakeMBPerPE <= 0 {
		t.Error("non-positive memory per PE")
	}
	if c.EXFLOWKBPerMFLOP != 144 || c.EXFLOWMsgsPerMFLOP != 66 {
		t.Error("EXFLOW reference values wrong")
	}
	// The rendered table carries all four metrics, the memory row included.
	tab := EXFLOWTable(c)
	if tab.Title != "EXFLOW vs sf10/16" || len(tab.Rows) != 4 {
		t.Fatalf("table title %q, %d rows", tab.Title, len(tab.Rows))
	}
	if last := tab.Rows[3]; last[0] != "MB/PE" || last[2] != report.F(c.QuakeMBPerPE, 2) {
		t.Errorf("memory row = %v", last)
	}
}

// TestPresetEfficiencyTable: the table's columns are machine.Presets(),
// read at call time — a preset added there shows up as a column with no
// edit here or in the builder — and every cell is Equation (1) at that
// preset's (T_f, T_l, T_w).
func TestPresetEfficiencyTable(t *testing.T) {
	tab, err := PresetEfficiencyTable(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Properties(SF10, testPCounts, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	presets := machine.Presets()
	if len(tab.Headers) != 1+len(presets) || len(tab.Rows) != len(rows) {
		t.Fatalf("table is %d×%d, want %d rows × (1 + %d presets)", len(tab.Rows), len(tab.Headers), len(rows), len(presets))
	}
	for j, m := range presets {
		if tab.Headers[1+j] != m.Name {
			t.Errorf("column %d is %q, want preset %q", 1+j, tab.Headers[1+j], m.Name)
		}
		for i, r := range rows {
			if want := report.F(model.Efficiency(r.App(), m.Tf, m.Tl, m.Tw), 3); tab.Rows[i][1+j] != want {
				t.Errorf("%s at p=%d: %s, want %s", m.Name, r.P, tab.Rows[i][1+j], want)
			}
		}
	}
}
