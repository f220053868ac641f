package quake

import (
	"repro/internal/partition"
	"repro/internal/report"
)

// Sweep is what the figure tables are computed over: the scenario
// family (the single-instance tables — Figures 8–11, the EXFLOW
// comparison and the preset machines — use its last member), the
// subdomain counts and the partitioner. The validation, ablation,
// sensitivity, extension and timed tables run fixed configurations and
// ignore it.
type Sweep struct {
	Scenarios []Scenario
	PEs       []int
	Method    partition.Method
}

// last is the sweep's last scenario.
func (w Sweep) last() Scenario { return w.Scenarios[len(w.Scenarios)-1] }

// lastRow is the one instance Figure 10 and the EXFLOW comparison
// describe: the last scenario at the sweep's last PE count. It is
// computed when a table asks (Properties caches it), so a run of tables
// that read none, Figure 2's, partitions nothing.
func (w Sweep) lastRow() (PropsRow, error) {
	rows, err := Properties(w.last(), w.PEs, w.Method)
	if err != nil {
		return PropsRow{}, err
	}
	return rows[len(rows)-1], nil
}

// Experiment is one table of results/: its file name and its maker.
type Experiment struct {
	Name string
	// Timed tables carry host timings, so no two runs write the same
	// file; a run makes them only when it names them.
	Timed bool
	Make  func(Sweep) (*report.Table, error)
}

// fixed adapts a table with its own configuration to the catalogue.
func fixed(table func() (*report.Table, error)) func(Sweep) (*report.Table, error) {
	return func(Sweep) (*report.Table, error) { return table() }
}

// Catalogue is every table of results/, in the order a run writes them.
// Each name is the table's file name without extension.
var Catalogue = []Experiment{
	{Name: "fig2_mesh_sizes", Make: func(w Sweep) (*report.Table, error) { return Fig2Table(w.Scenarios) }},
	{Name: "fig6_beta", Make: func(w Sweep) (*report.Table, error) { return Fig6Table(w.Scenarios, w.PEs, w.Method) }},
	{Name: "fig7_properties", Make: func(w Sweep) (*report.Table, error) { return Fig7Table(w.Scenarios, w.PEs, w.Method) }},
	{Name: "fig8_bisection", Make: func(w Sweep) (*report.Table, error) { return Fig8Table(w.last(), w.PEs, w.Method) }},
	{Name: "fig9_sustained_bw", Make: func(w Sweep) (*report.Table, error) { return Fig9Table(w.last(), w.PEs, w.Method) }},
	{Name: "fig10_tradeoff", Make: func(w Sweep) (*report.Table, error) {
		row, err := w.lastRow()
		if err != nil {
			return nil, err
		}
		return Fig10Table(row, 5e-9, []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}), nil
	}},
	{Name: "fig11_half_bandwidth", Make: func(w Sweep) (*report.Table, error) { return Fig11Table(w.last(), w.PEs, w.Method) }},
	{Name: "exflow_comparison", Make: func(w Sweep) (*report.Table, error) {
		row, err := w.lastRow()
		if err != nil {
			return nil, err
		}
		cmp, err := CompareEXFLOW(w.last(), row)
		if err != nil {
			return nil, err
		}
		return EXFLOWTable(cmp), nil
	}},
	{Name: "preset_efficiency", Make: func(w Sweep) (*report.Table, error) {
		return PresetEfficiencyTable(w.last(), w.PEs, w.Method)
	}},
	{Name: "model_validation", Make: fixed(modelValidation)},
	{Name: "validation_torus", Make: fixed(validationTorus)},
	{Name: "ablation_partitioners", Make: fixed(ablationPartitioners)},
	{Name: "ablation_bisection", Make: fixed(ablationBisection)},
	{Name: "ablation_torus", Make: fixed(ablationTorus)},
	{Name: "ablation_blocksize", Make: fixed(ablationBlockSize)},
	{Name: "ablation_overlap", Make: fixed(ablationOverlap)},
	{Name: "ablation_multilevel", Make: fixed(ablationMultilevel)},
	{Name: "ablation_irregularity", Make: fixed(ablationIrregularity)},
	{Name: "dsm_false_sharing", Make: fixed(dsmFalseSharing)},
	{Name: "sensitivity_ppw", Make: fixed(sensitivityPPW)},
	{Name: "sensitivity_contrast", Make: fixed(sensitivityContrast)},
	{Name: "exflow_workload", Make: fixed(exflowWorkload)},
	{Name: "extension_implicit", Make: fixed(extensionImplicit)},
	{Name: "ablation_ordering", Timed: true, Make: fixed(ablationOrdering)},
	{Name: "eq12_measured_tf", Timed: true, Make: fixed(eq12MeasuredTf)},
}
