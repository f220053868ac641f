package quake

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/report"
)

// PropsRow is one block of the paper's Figure 7: the SMVP properties of
// one scenario partitioned onto P subdomains, plus the derived
// quantities other figures need (β for Figure 6, bisection volume for
// Figure 8, message statistics for the EXFLOW comparison).
type PropsRow struct {
	Scenario string
	P        int
	F        int64   // flops per PE (max over PEs)
	Cmax     int64   // max words sent+received by one PE
	Bmax     int64   // max blocks sent+received by one PE
	Mavg     float64 // average message size (words)
	Ratio    float64 // F / Cmax
	Beta     float64
	// BisectionWords crosses the canonical bisection per exchange.
	BisectionWords int64
	// TotalWords and TotalMessages are the directed totals per exchange.
	TotalWords    int64
	TotalMessages int64
	// SumF is the total flop count over all PEs per SMVP.
	SumF int64
	// SharedNodes is the number of replicated (interface) nodes.
	SharedNodes int
	// MaxNodesPE is the largest per-PE resident node count (memory).
	MaxNodesPE int
	// LoadImbalance is max(F)/mean(F).
	LoadImbalance float64
}

// App returns the row's model inputs.
func (r PropsRow) App() model.AppProperties {
	return model.AppProperties{F: r.F, Cmax: r.Cmax, Bmax: r.Bmax}
}

type profileKey struct {
	scenario string
	p        int
	method   partition.Method
}

var profileCache sync.Map // profileKey -> *PropsRow

// Properties partitions the scenario's mesh for each PE count with the
// given method and returns one row per count. Results are cached per
// process, keyed by (scenario, P, method).
func Properties(s Scenario, pcounts []int, method partition.Method) ([]PropsRow, error) {
	m, err := s.Mesh()
	if err != nil {
		return nil, err
	}
	rows := make([]PropsRow, 0, len(pcounts))
	for _, p := range pcounts {
		key := profileKey{s.Name, p, method}
		if v, ok := profileCache.Load(key); ok {
			rows = append(rows, *v.(*PropsRow))
			continue
		}
		row, err := analyzeOne(m, s.Name, p, method)
		if err != nil {
			return nil, err
		}
		profileCache.Store(key, row)
		rows = append(rows, *row)
	}
	return rows, nil
}

func analyzeOne(m *mesh.Mesh, name string, p int, method partition.Method) (*PropsRow, error) {
	pt, err := partition.PartitionMesh(m, p, method, 1)
	if err != nil {
		return nil, fmt.Errorf("quake: %s/%d: %w", name, p, err)
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return nil, fmt.Errorf("quake: %s/%d: %w", name, p, err)
	}
	row := &PropsRow{
		Scenario:       name,
		P:              p,
		F:              pr.Fmax(),
		Cmax:           pr.Cmax(),
		Bmax:           pr.Bmax(),
		Mavg:           pr.Mavg(),
		Ratio:          pr.CompCommRatio(),
		Beta:           pr.Beta(),
		BisectionWords: pr.BisectionWords(),
		TotalWords:     pr.TotalWords(),
		TotalMessages:  pr.TotalMessages(),
		SharedNodes:    pr.SharedNodes,
		LoadImbalance:  pr.LoadImbalance(),
	}
	for _, f := range pr.F {
		row.SumF += f
	}
	for _, nodes := range pr.NodesOnPE {
		if len(nodes) > row.MaxNodesPE {
			row.MaxNodesPE = len(nodes)
		}
	}
	return row, nil
}

// Fig2Table renders the mesh-size table (Figure 2): generated versus
// paper node/element/edge counts for each scenario.
func Fig2Table(scenarios []Scenario) (*report.Table, error) {
	t := report.New("Figure 2: sizes of the Quake meshes (generated vs paper)",
		"mesh", "nodes", "elements", "edges", "paper nodes", "paper elements", "paper edges",
		"avg degree", "KB/node")
	for _, s := range scenarios {
		m, err := s.Mesh()
		if err != nil {
			return nil, err
		}
		st := m.ComputeStats()
		t.AddRow(s.Name,
			report.Int(int64(st.Nodes)), report.Int(int64(st.Elems)), report.Int(int64(st.Edges)),
			report.Int(s.PaperNodes), report.Int(s.PaperElems), report.Int(s.PaperEdges),
			report.F(st.AvgDegree, 1), report.F(st.BytesPerNode/1024, 2))
	}
	return t, nil
}

// Fig6Table renders the β error-bound table (Figure 6): rows are PE
// counts, columns scenarios.
func Fig6Table(scenarios []Scenario, pcounts []int, method partition.Method) (*report.Table, error) {
	headers := append([]string{"subdomains"}, names(scenarios)...)
	t := report.New("Figure 6: computed relative error bounds β on T_c", headers...)
	cols := make([][]PropsRow, len(scenarios))
	for i, s := range scenarios {
		rows, err := Properties(s, pcounts, method)
		if err != nil {
			return nil, err
		}
		cols[i] = rows
	}
	for pi, p := range pcounts {
		cells := []string{fmt.Sprint(p)}
		for i := range scenarios {
			cells = append(cells, report.F(cols[i][pi].Beta, 2))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig7Table renders the SMVP properties table (Figure 7).
func Fig7Table(scenarios []Scenario, pcounts []int, method partition.Method) (*report.Table, error) {
	headers := append([]string{"subdomains", "quantity"}, names(scenarios)...)
	t := report.New("Figure 7: Quake SMVP properties", headers...)
	cols := make([][]PropsRow, len(scenarios))
	for i, s := range scenarios {
		rows, err := Properties(s, pcounts, method)
		if err != nil {
			return nil, err
		}
		cols[i] = rows
	}
	for pi, p := range pcounts {
		add := func(label string, get func(PropsRow) string) {
			cells := []string{fmt.Sprint(p), label}
			for i := range scenarios {
				cells = append(cells, get(cols[i][pi]))
			}
			t.AddRow(cells...)
		}
		add("F", func(r PropsRow) string { return report.Int(r.F) })
		add("C_max", func(r PropsRow) string { return report.Int(r.Cmax) })
		add("B_max", func(r PropsRow) string { return report.Int(r.Bmax) })
		add("M_avg", func(r PropsRow) string { return report.F(r.Mavg, 0) })
		add("F/C_max", func(r PropsRow) string { return report.F(r.Ratio, 0) })
	}
	return t, nil
}

// Efficiencies and machine rates swept by Figures 8-11.
var (
	FigEfficiencies = []float64{0.5, 0.8, 0.9}
	FigTfs          = []float64{10e-9, 5e-9} // 100 and 200 MFLOPS
)

// Fig8Table renders the sustained bisection bandwidth requirements
// (Figure 8) for one scenario across PE counts.
func Fig8Table(s Scenario, pcounts []int, method partition.Method) (*report.Table, error) {
	rows, err := Properties(s, pcounts, method)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Figure 8: sustained bisection bandwidth required for %s (MB/s)", s.Name),
		"subdomains", "E", "100 MFLOPS", "200 MFLOPS")
	for _, r := range rows {
		for _, e := range FigEfficiencies {
			cells := []string{fmt.Sprint(r.P), report.F(e, 2)}
			for _, tf := range FigTfs {
				tc := model.RequiredTc(r.App(), e, tf)
				bw := model.BisectionBandwidth(r.BisectionWords, r.Cmax, tc)
				cells = append(cells, report.F(model.MBps(bw), 1))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}

// Fig9Table renders the sustained per-PE bandwidth requirements
// (Figure 9) for one scenario across PE counts.
func Fig9Table(s Scenario, pcounts []int, method partition.Method) (*report.Table, error) {
	rows, err := Properties(s, pcounts, method)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Figure 9: sustained PE bandwidth 1/T_c required for %s (MB/s)", s.Name),
		"subdomains", "E", "100 MFLOPS", "200 MFLOPS")
	for _, r := range rows {
		for _, e := range FigEfficiencies {
			cells := []string{fmt.Sprint(r.P), report.F(e, 2)}
			for _, tf := range FigTfs {
				bw := model.RequiredBandwidth(r.App(), e, tf)
				cells = append(cells, report.F(model.MBps(bw), 1))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}

// TradeoffPoint is one point of a Figure 10 curve: the block latency
// budget at a given burst bandwidth.
type TradeoffPoint struct {
	BurstMBps  float64
	LatencySec float64 // ≤0 means infeasible at this burst bandwidth
}

// Fig10Curve computes the latency/burst-bandwidth tradeoff (Figure 10)
// for the given application properties, target efficiency, and machine
// speed, sampling the given burst bandwidths (MB/s). Use
// app.WithFixedBlocks(4) for the four-word-block variant (Figure 10b).
func Fig10Curve(app model.AppProperties, e, tf float64, burstMBps []float64) []TradeoffPoint {
	tc := model.RequiredTc(app, e, tf)
	out := make([]TradeoffPoint, 0, len(burstMBps))
	for _, mb := range burstMBps {
		tw := model.BytesPerWord / (mb * 1e6)
		out = append(out, TradeoffPoint{BurstMBps: mb, LatencySec: model.LatencyBudget(app, tc, tw)})
	}
	return out
}

// Fig10Table renders Figure 10 for one row (scenario at one PE count).
func Fig10Table(r PropsRow, tf float64, burstMBps []float64) *report.Table {
	t := report.New(
		fmt.Sprintf("Figure 10: burst bandwidth vs block latency for %s/%d (Tf=%s)",
			r.Scenario, r.P, report.SI(tf, "s/flop")),
		"burst MB/s", "block regime", "E", "max block latency")
	for _, regime := range []struct {
		label string
		app   model.AppProperties
	}{
		{"maximal", r.App()},
		{"4-word", r.App().WithFixedBlocks(4)},
	} {
		for _, e := range FigEfficiencies {
			for _, pt := range Fig10Curve(regime.app, e, tf, burstMBps) {
				lat := "infeasible"
				if pt.LatencySec > 0 {
					lat = report.SI(pt.LatencySec, "s")
				}
				t.AddRow(report.F(pt.BurstMBps, 0), regime.label, report.F(e, 2), lat)
			}
		}
	}
	return t
}

// HalfPoint is one point of Figure 11: the half-bandwidth design point
// for one (P, E, Tf, regime) combination.
type HalfPoint struct {
	Scenario  string
	P         int
	E         float64
	Tf        float64
	Regime    string // "maximal" or "4-word"
	BurstMBps float64
	Latency   float64
}

// Fig11Points computes the half-bandwidth/latency design points
// (Figure 11) over the whole sweep for one scenario.
func Fig11Points(s Scenario, pcounts []int, method partition.Method) ([]HalfPoint, error) {
	rows, err := Properties(s, pcounts, method)
	if err != nil {
		return nil, err
	}
	var out []HalfPoint
	for _, r := range rows {
		for _, regime := range []struct {
			label string
			app   model.AppProperties
		}{
			{"maximal", r.App()},
			{"4-word", r.App().WithFixedBlocks(4)},
		} {
			for _, e := range FigEfficiencies {
				for _, tf := range FigTfs {
					bw, lat := model.HalfBandwidthPoint(regime.app, e, tf)
					out = append(out, HalfPoint{
						Scenario: r.Scenario, P: r.P, E: e, Tf: tf,
						Regime: regime.label, BurstMBps: model.MBps(bw), Latency: lat,
					})
				}
			}
		}
	}
	return out, nil
}

// Fig11Table renders Figure 11.
func Fig11Table(s Scenario, pcounts []int, method partition.Method) (*report.Table, error) {
	points, err := Fig11Points(s, pcounts, method)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Figure 11: half-bandwidths and half-latencies for the %s SMVP", s.Name),
		"subdomains", "regime", "E", "MFLOPS", "half-bandwidth MB/s", "half-latency")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.P), p.Regime, report.F(p.E, 2),
			report.F(model.MFLOPS(p.Tf), 0),
			report.F(p.BurstMBps, 1), report.SI(p.Latency, "s"))
	}
	return t, nil
}

// MeasuredTfTable regenerates the Equation (1)/(2) requirements table
// with the harness's *measured* per-flop time alongside the paper-era
// baseline assumption: for every PE count and target efficiency it
// shows how the required amortized word time T_c, the required per-PE
// bandwidth, and the half-bandwidth design point shift when baseTf
// (typically 5 ns, the paper's 200 MFLOPS machine) is replaced by
// measuredTf (from obs/analyze.AchievedOf over a live kernel window).
// Equation (1) is linear in T_f, so the whole table moves by the
// kernel speedup — the quantitative form of the paper's "faster
// processors need faster networks" argument.
func MeasuredTfTable(s Scenario, pcounts []int, method partition.Method, baseTf, measuredTf float64) (*report.Table, error) {
	rows, err := Properties(s, pcounts, method)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Eq.(1)/(2) at measured Tf for %s: base %s vs measured %s (kernel speedup %.2f×)",
			s.Name, report.SI(baseTf, "s/flop"), report.SI(measuredTf, "s/flop"), baseTf/measuredTf),
		"subdomains", "E",
		"required Tc (base)", "required Tc (measured)",
		"per-PE BW MB/s (base)", "per-PE BW MB/s (measured)",
		"half-BW MB/s (measured)", "half-latency (measured)")
	for _, r := range rows {
		for _, e := range FigEfficiencies {
			sh := model.ShiftTf(r.App(), e, baseTf, measuredTf)
			t.AddRow(fmt.Sprint(r.P), report.F(e, 2),
				report.SI(sh.BaseTc, "s"), report.SI(sh.MeasuredTc, "s"),
				report.F(model.MBps(sh.BaseBW), 1), report.F(model.MBps(sh.MeasuredBW), 1),
				report.F(model.MBps(sh.MeasuredHalfBW), 1), report.SI(sh.MeasuredHalfLat, "s"))
		}
	}
	return t, nil
}

// EXFLOWComparison mirrors the paper's introduction: compare a Quake
// instance against the published EXFLOW profile on communication volume
// per MFLOP, messages per MFLOP, and average message size.
type EXFLOWComparison struct {
	Row PropsRow
	// Quake-side derived metrics.
	QuakeKBPerMFLOP   float64
	QuakeMsgsPerMFLOP float64
	QuakeAvgMsgKB     float64
	QuakeMBPerPE      float64
	// Published EXFLOW reference values (Cypher et al., quoted in the
	// paper): 144 KB/MFLOP, 66 messages/MFLOP, 2.2 KB average message,
	// about 2 MB of data per PE on 512 PEs.
	EXFLOWKBPerMFLOP   float64
	EXFLOWMsgsPerMFLOP float64
	EXFLOWAvgMsgKB     float64
}

// PaperQuakeKBPerMFLOP etc. are the paper's own sf2/128 values, for
// reference in reports.
const (
	PaperQuakeKBPerMFLOP   = 155.0
	PaperQuakeMsgsPerMFLOP = 60.0
	PaperQuakeAvgMsgKB     = 3.6
	EXFLOWKBPerMFLOP       = 144.0
	EXFLOWMsgsPerMFLOP     = 66.0
	EXFLOWAvgMsgKB         = 2.2
)

// CompareEXFLOW computes the comparison for one properties row,
// using bytes-per-node from the scenario mesh for the memory figure.
func CompareEXFLOW(s Scenario, r PropsRow) (*EXFLOWComparison, error) {
	m, err := s.Mesh()
	if err != nil {
		return nil, err
	}
	st := m.ComputeStats()
	mflop := float64(r.SumF) / 1e6
	c := &EXFLOWComparison{
		Row:                r,
		QuakeKBPerMFLOP:    float64(r.TotalWords) * model.BytesPerWord / 1024 / mflop,
		QuakeMsgsPerMFLOP:  float64(r.TotalMessages) / mflop,
		QuakeMBPerPE:       float64(r.MaxNodesPE) * st.BytesPerNode / 1e6,
		EXFLOWKBPerMFLOP:   EXFLOWKBPerMFLOP,
		EXFLOWMsgsPerMFLOP: EXFLOWMsgsPerMFLOP,
		EXFLOWAvgMsgKB:     EXFLOWAvgMsgKB,
	}
	if r.TotalMessages > 0 {
		c.QuakeAvgMsgKB = float64(r.TotalWords) * model.BytesPerWord / 1024 / float64(r.TotalMessages)
	}
	return c, nil
}

// EXFLOWTable renders the comparison as the introduction states it:
// the published EXFLOW profile, this instance, and the paper's own
// sf2/128 figures side by side. The 2.0 MB/PE entries are the paper's
// round figure for both codes.
func EXFLOWTable(c *EXFLOWComparison) *report.Table {
	t := report.New(fmt.Sprintf("EXFLOW vs %s/%d", c.Row.Scenario, c.Row.P),
		"metric", "EXFLOW", "ours", "paper sf2/128")
	t.AddRow("KB/MFLOP", report.F(c.EXFLOWKBPerMFLOP, 0),
		report.F(c.QuakeKBPerMFLOP, 1), report.F(PaperQuakeKBPerMFLOP, 0))
	t.AddRow("msgs/MFLOP", report.F(c.EXFLOWMsgsPerMFLOP, 0),
		report.F(c.QuakeMsgsPerMFLOP, 1), report.F(PaperQuakeMsgsPerMFLOP, 0))
	t.AddRow("avg msg KB", report.F(c.EXFLOWAvgMsgKB, 1),
		report.F(c.QuakeAvgMsgKB, 1), report.F(PaperQuakeAvgMsgKB, 1))
	t.AddRow("MB/PE", "2.0", report.F(c.QuakeMBPerPE, 2), "2.0")
	return t
}

// PresetEfficiencyTable evaluates Equation (1)'s modeled efficiency of
// every machine.Presets() entry on the scenario across the sweep: one
// row per subdomain count, one column per preset.
func PresetEfficiencyTable(s Scenario, pcounts []int, method partition.Method) (*report.Table, error) {
	rows, err := Properties(s, pcounts, method)
	if err != nil {
		return nil, err
	}
	presets := machine.Presets()
	headers := []string{"subdomains"}
	for _, m := range presets {
		headers = append(headers, m.Name)
	}
	t := report.New("Modeled efficiency of preset machines on "+s.Name, headers...)
	for _, r := range rows {
		cells := []string{fmt.Sprint(r.P)}
		for _, m := range presets {
			cells = append(cells, report.F(model.Efficiency(r.App(), m.Tf, m.Tl, m.Tw), 3))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

func names(scenarios []Scenario) []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.Name
	}
	return out
}
