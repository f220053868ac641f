package quake

// The validation, ablation, sensitivity and extension tables. Each runs
// one fixed configuration — mostly sf5 on the measured T3E — rather than
// the scenario sweep of the figure tables, and returns an error when a
// check its reading rests on fails.

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dsm"
	"repro/internal/fem"
	"repro/internal/machine"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/octree"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/solver"
)

// profileOf partitions m onto p PEs and analyzes the partition.
func profileOf(m *mesh.Mesh, p int, method partition.Method, seed int64) (*partition.Partition, *partition.Profile, error) {
	pt, err := partition.PartitionMesh(m, p, method, seed)
	if err != nil {
		return nil, nil, err
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return nil, nil, err
	}
	return pt, pr, nil
}

// sf5Profile partitions sf5 onto p PEs and analyzes the partition.
func sf5Profile(p int, method partition.Method, seed int64) (*partition.Profile, error) {
	m, err := SF5.Mesh()
	if err != nil {
		return nil, err
	}
	_, pr, err := profileOf(m, p, method, seed)
	return pr, err
}

// sf5Schedule is the exchange schedule of sf5 partitioned onto p PEs by
// RCB.
func sf5Schedule(p int) (*comm.Schedule, error) {
	pr, err := sf5Profile(p, partition.RCB, 1)
	if err != nil {
		return nil, err
	}
	return comm.FromMatrix(pr.Msg)
}

// appOf is the model input of a partition.
func appOf(pr *partition.Profile) model.AppProperties {
	return model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
}

// cmaxOverCavg is a partition's communication balance: the busiest PE's
// words over the mean.
func cmaxOverCavg(pr *partition.Profile) float64 {
	var sum int64
	for _, c := range pr.C {
		sum += c
	}
	return float64(pr.Cmax()) / (float64(sum) / float64(pr.P))
}

// meshAt meshes the San Fernando box at the given sizing.
func meshAt(maxDepth int, mat *material.Model, period, ppw float64) (*mesh.Mesh, error) {
	tr, err := octree.Build(Domain(maxDepth), mat.Sizing(period, ppw))
	if err != nil {
		return nil, err
	}
	return mesh.FromTree(tr)
}

// modelValidation compares the closed-form model against the exact
// per-PE time and the discrete-event simulation on sf5 and the measured
// T3E. It fails if model/exact exceeds β at any PE count.
func modelValidation() (*report.Table, error) {
	t3e := machine.T3E()
	t := report.New("Model vs exact vs discrete simulation (Cray T3E, "+SF5.Name+")",
		"PEs", "model", "exact", "β", "model/exact", "sim", "sim/exact")
	for _, p := range PECounts {
		pr, err := sf5Profile(p, partition.RCB, 1)
		if err != nil {
			return nil, err
		}
		sched, err := comm.FromMatrix(pr.Msg)
		if err != nil {
			return nil, err
		}
		modelT := machine.ModelCommTime(sched, t3e)
		exactT := machine.ExactCommTime(sched, t3e)
		sim, err := machine.Simulate(sched, t3e, machine.Crossbar{Transit: 1e-6})
		if err != nil {
			return nil, err
		}
		beta := pr.Beta()
		ratio := modelT / exactT
		if ratio > beta+1e-9 {
			return nil, fmt.Errorf("p=%d: model/exact %.4f exceeds β %.4f", p, ratio, beta)
		}
		t.AddRow(fmt.Sprint(p), report.SI(modelT, "s"), report.SI(exactT, "s"),
			report.F(beta, 2), report.F(ratio, 3),
			report.SI(sim.CommTime, "s"), report.F(sim.CommTime/exactT, 3))
	}
	return t, nil
}

// validationTorus cross-checks three fidelity levels on sf5: the closed
// form, the infinite-network simulation and a contended torus.
func validationTorus() (*report.Table, error) {
	t3e := machine.T3E()
	t := report.New("Validation: model vs infinite-net sim vs contended torus (sf5, T3E, 300 MB/s links)",
		"PEs", "model", "sim", "torus", "torus/model")
	for _, p := range []int{8, 27, 64, 125} {
		sched, err := sf5Schedule(p)
		if err != nil {
			return nil, err
		}
		tor, err := network.NewTorus(p)
		if err != nil {
			return nil, err
		}
		modelT := machine.ModelCommTime(sched, t3e)
		sim, err := machine.Simulate(sched, t3e, machine.Crossbar{Transit: 1e-6})
		if err != nil {
			return nil, err
		}
		tor.LinkBytesPerSec, tor.HopLatency = 300e6, 100e-9
		torRes, err := machine.Simulate(sched, t3e, tor)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(p), report.SI(modelT, "s"), report.SI(sim.CommTime, "s"),
			report.SI(torRes.CommTime, "s"), report.F(torRes.CommTime/modelT, 3))
	}
	return t, nil
}

// ablationPartitioners is partitioner quality on sf5/32: C_max, B_max, β
// and modeled T3E efficiency per method.
func ablationPartitioners() (*report.Table, error) {
	t3e := machine.T3E()
	t := report.New("Ablation: partitioner quality on sf5/32",
		"method", "C_max", "B_max", "β", "E(T3E)")
	for _, method := range []partition.Method{
		partition.RCB, partition.Inertial, partition.StripesZ,
		partition.Linear, partition.Random,
	} {
		pr, err := sf5Profile(32, method, 42)
		if err != nil {
			return nil, err
		}
		e := model.Efficiency(appOf(pr), t3e.Tf, t3e.Tl, t3e.Tw)
		t.AddRow(method.String(), report.Int(pr.Cmax()), report.Int(pr.Bmax()),
			report.F(pr.Beta(), 2), report.F(e, 3))
	}
	return t, nil
}

// ablationBisection starves the bisection channel of the sf5/64 exchange:
// the simulated exchange time barely moves until the channel is far
// below realistic capacity.
func ablationBisection() (*report.Table, error) {
	sched, err := sf5Schedule(64)
	if err != nil {
		return nil, err
	}
	t3e := machine.T3E()
	t := report.New("Ablation: finite bisection bandwidth (sf5/64, T3E)",
		"bisection MB/s", "exchange time", "slowdown vs infinite")
	free, err := machine.Simulate(sched, t3e, machine.Crossbar{})
	if err != nil {
		return nil, err
	}
	for _, mbps := range []float64{0, 10000, 1000, 300, 100, 30, 10, 3, 1} {
		res, err := machine.Simulate(sched, t3e, machine.Crossbar{BisectionBytesPerSec: mbps * 1e6})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprint(mbps)
		if mbps == 0 {
			label = "inf"
		}
		t.AddRow(label, report.SI(res.CommTime, "s"), report.F(res.CommTime/free.CommTime, 2))
	}
	return t, nil
}

// ablationTorus runs the sf5/64 exchange over a 4×4×4 torus with
// dimension-ordered routing at falling link bandwidths, against the same
// torus with infinite links.
func ablationTorus() (*report.Table, error) {
	sched, err := sf5Schedule(64)
	if err != nil {
		return nil, err
	}
	tor, err := network.NewTorus(64)
	if err != nil {
		return nil, err
	}
	tor.HopLatency = 100e-9
	t3e := machine.T3E()
	t := report.New("Ablation: torus link contention (sf5/64, T3E, 4x4x4 DOR torus)",
		"link MB/s", "exchange time", "vs infinite", "max link busy", "max hops")
	free, err := machine.Simulate(sched, t3e, tor)
	if err != nil {
		return nil, err
	}
	for _, mbps := range []float64{0, 1000, 600, 300, 100, 30, 10} {
		links := tor
		links.LinkBytesPerSec = mbps * 1e6
		res, err := machine.Simulate(sched, t3e, links)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprint(mbps)
		if mbps == 0 {
			label = "inf"
		}
		t.AddRow(label, report.SI(res.CommTime, "s"), report.F(res.CommTime/free.CommTime, 3),
			report.SI(res.MaxLinkBusy, "s"), fmt.Sprint(res.MaxHops))
	}
	return t, nil
}

// ablationBlockSize splits the sf5/64 exchange from maximal blocks down
// to 4-word cache-line blocks on the measured T3E (the Figure 10b
// regime).
func ablationBlockSize() (*report.Table, error) {
	base, err := sf5Schedule(64)
	if err != nil {
		return nil, err
	}
	t3e := machine.T3E()
	t := report.New("Ablation: transfer-unit size (sf5/64, T3E)",
		"block words", "blocks total", "exchange time", "vs maximal")
	ref := machine.ExactCommTime(base, t3e)
	t.AddRow("maximal", report.Int(int64(base.TotalBlocks())), report.SI(ref, "s"), "1.00")
	for _, w := range []int64{1024, 256, 64, 16, 4} {
		split, err := base.SplitBlocks(w)
		if err != nil {
			return nil, err
		}
		ct := machine.ExactCommTime(split, t3e)
		t.AddRow(fmt.Sprint(w), report.Int(int64(split.TotalBlocks())),
			report.SI(ct, "s"), report.F(ct/ref, 2))
	}
	return t, nil
}

// ablationOverlap is the paper's footnote 1: the upper-bound speedup
// from overlapping interior computation with the exchange, per PE count
// on sf5 and the T3E (modeled).
func ablationOverlap() (*report.Table, error) {
	t3e := machine.T3E()
	t := report.New("Ablation: overlap upper bound ("+SF5.Name+", T3E)",
		"PEs", "boundary flop frac", "E separated", "E overlapped", "speedup")
	for _, p := range PECounts {
		pr, err := sf5Profile(p, partition.RCB, 1)
		if err != nil {
			return nil, err
		}
		o := model.Overlap{App: appOf(pr), FBoundary: pr.FBoundaryMax()}
		if err := o.Validate(); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(p),
			report.F(float64(o.FBoundary)/float64(o.App.F), 3),
			report.F(model.Efficiency(o.App, t3e.Tf, t3e.Tl, t3e.Tw), 3),
			report.F(o.Efficiency(t3e.Tf, t3e.Tl, t3e.Tw), 3),
			report.F(o.Speedup(t3e.Tf, t3e.Tl, t3e.Tw), 3))
	}
	return t, nil
}

// ablationMultilevel compares the multilevel KL/FM partitioner against
// geometric RCB on sf5.
func ablationMultilevel() (*report.Table, error) {
	t := report.New("Ablation: multilevel KL/FM vs geometric RCB (sf5)",
		"PEs", "C_max RCB", "C_max ML", "ML/RCB", "B_max RCB", "B_max ML")
	for _, p := range []int{8, 32, 128} {
		rcb, err := sf5Profile(p, partition.RCB, 1)
		if err != nil {
			return nil, err
		}
		ml, err := sf5Profile(p, partition.Multilevel, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(p),
			report.Int(rcb.Cmax()), report.Int(ml.Cmax()),
			report.F(float64(ml.Cmax())/float64(rcb.Cmax()), 2),
			report.Int(rcb.Bmax()), report.Int(ml.Bmax()))
	}
	return t, nil
}

// ablationIrregularity compares communication balance of the graded sf5
// mesh against a uniform mesh of comparable resolution on 64 PEs.
func ablationIrregularity() (*report.Table, error) {
	irr, err := SF5.Mesh()
	if err != nil {
		return nil, err
	}
	// h = 0.7·5/2.0 = 1.75 km everywhere.
	reg, err := meshAt(4, material.Uniform(0.7), SF5.Period, SF5.PPW)
	if err != nil {
		return nil, err
	}
	t3e := machine.T3E()
	t := report.New("Ablation: irregular (sf5) vs regular (uniform) workload, 64 PEs, RCB",
		"workload", "nodes", "C_max", "C_max/C_avg", "B_max", "β", "M_avg", "load imbal", "E(T3E)")
	for _, w := range []struct {
		name string
		m    *mesh.Mesh
	}{{"irregular", irr}, {"regular", reg}} {
		_, pr, err := profileOf(w.m, 64, partition.RCB, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.name,
			report.Int(int64(w.m.NumNodes())),
			report.Int(pr.Cmax()),
			report.F(cmaxOverCavg(pr), 2),
			report.Int(pr.Bmax()),
			report.F(pr.Beta(), 2),
			report.F(pr.Mavg(), 0),
			report.F(pr.LoadImbalance(), 3),
			report.F(model.Efficiency(appOf(pr), t3e.Tf, t3e.Tl, t3e.Tw), 3))
	}
	return t, nil
}

// dsmFalseSharing sweeps the page size of a software-DSM exchange on
// sf5/64, native and RCM-renumbered: the volume amplification false
// sharing causes and the modeled efficiency at TreadMarks-like per-page
// costs.
func dsmFalseSharing() (*report.Table, error) {
	base, err := SF5.Mesh()
	if err != nil {
		return nil, err
	}
	rcm, err := base.Permute(base.RCMOrder())
	if err != nil {
		return nil, err
	}
	const (
		pageFault = 300e-6 // Tl per page on a software DSM
		twDSM     = 55e-9  // same wire speed as the T3E
		tf        = 10e-9
	)
	t := report.New("DSM regime: page-grain exchange (sf5/64, page fault 300 µs)",
		"ordering", "page words", "amplification", "pages max/PE", "E(model)")
	for _, variant := range []struct {
		name string
		m    *mesh.Mesh
	}{{"native", base}, {"rcm", rcm}} {
		_, pr, err := profileOf(variant.m, 64, partition.RCB, 1)
		if err != nil {
			return nil, err
		}
		for _, pw := range []int64{4, 16, 64, 512} {
			a, err := dsm.Analyze(pr, dsm.Layout{PageWords: pw})
			if err != nil {
				return nil, err
			}
			app := model.AppProperties{F: pr.Fmax(), Cmax: a.Cmax(), Bmax: a.Bmax()}
			t.AddRow(variant.name, fmt.Sprint(pw),
				report.F(a.Amplification(), 2),
				report.Int(a.Bmax()),
				report.F(model.Efficiency(app, tf, pageFault, twDSM), 3))
		}
	}
	return t, nil
}

// sensitivityPPW sweeps the points-per-wavelength calibration knob on
// the sf5 period. It fails unless F/C_max rises with resolution at
// fixed P — the O(n^{1/3}) law, independent of the calibration constant.
func sensitivityPPW() (*report.Table, error) {
	mat := material.SanFernando()
	t := report.New("Sensitivity: points-per-wavelength (period 5 s, 32 PEs, RCB)",
		"PPW", "nodes", "elements", "F/C_max", "β", "M_avg")
	var ratios []float64
	for _, ppw := range []float64{1.5, 2.0, 2.5, 3.0} {
		m, err := meshAt(8, mat, 5, ppw)
		if err != nil {
			return nil, err
		}
		_, pr, err := profileOf(m, 32, partition.RCB, 1)
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, pr.CompCommRatio())
		t.AddRow(report.F(ppw, 1),
			report.Int(int64(m.NumNodes())), report.Int(int64(m.NumElems())),
			report.F(pr.CompCommRatio(), 0), report.F(pr.Beta(), 2),
			report.F(pr.Mavg(), 0))
	}
	for i := 1; i < len(ratios); i++ {
		if ratios[i] < ratios[i-1]*0.95 {
			return nil, fmt.Errorf("F/C_max not rising with resolution: %v", ratios)
		}
	}
	return t, nil
}

// sensitivityContrast sweeps the basin softness: a softer basin is a
// larger velocity contrast, a more strongly graded mesh and a worse
// communication balance.
func sensitivityContrast() (*report.Table, error) {
	t3e := machine.T3E()
	t := report.New("Sensitivity: basin shear velocity (period 5 s, PPW 2, 32 PEs)",
		"basin Vs km/s", "contrast", "nodes", "C_max/C_avg", "E(T3E model)")
	for _, vs := range []float64{0.4, 0.8, 1.5, 3.0} {
		mat := material.SanFernando()
		mat.BasinVsSurface = min(vs, mat.RockVs)
		m, err := meshAt(8, mat, 5, 2.0)
		if err != nil {
			return nil, err
		}
		_, pr, err := profileOf(m, 32, partition.RCB, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(report.F(vs, 1),
			report.F(mat.RockVs/mat.BasinVsSurface, 1),
			report.Int(int64(m.NumNodes())),
			report.F(cmaxOverCavg(pr), 2),
			report.F(model.Efficiency(appOf(pr), t3e.Tf, t3e.Tl, t3e.Tw), 3))
	}
	return t, nil
}

// exflowWorkload runs the synthetic external-flow mesh (an EXFLOW-like
// CFD workload) through the same pipeline on 128 PEs, beside sf5 and
// the published EXFLOW profile.
func exflowWorkload() (*report.Table, error) {
	xflow, err := XFlowMesh()
	if err != nil {
		return nil, err
	}
	xrow, err := analyzeOne(xflow, "xflow", 128, partition.RCB)
	if err != nil {
		return nil, err
	}
	sf5, err := SF5.Mesh()
	if err != nil {
		return nil, err
	}
	rows, err := Properties(SF5, []int{128}, partition.RCB)
	if err != nil {
		return nil, err
	}
	t := report.New("EXFLOW-like external-flow workload vs Quake (128 PEs, RCB)",
		"workload", "nodes", "KB/MFLOP", "msgs/MFLOP", "avg msg KB", "F/C_max", "β")
	for _, w := range []struct {
		m *mesh.Mesh
		r PropsRow
	}{{xflow, *xrow}, {sf5, rows[0]}} {
		mflop := float64(w.r.SumF) / 1e6
		kb := float64(w.r.TotalWords) * model.BytesPerWord / 1024
		t.AddRow(w.r.Scenario,
			report.Int(int64(w.m.NumNodes())),
			report.F(kb/mflop, 1),
			report.F(float64(w.r.TotalMessages)/mflop, 1),
			report.F(kb/float64(w.r.TotalMessages), 1),
			report.F(w.r.Ratio, 0),
			report.F(w.r.Beta, 2))
	}
	t.AddRow("EXFLOW (published)", "n/a", "144", "66", "2.2", "n/a", "n/a")
	return t, nil
}

// extensionImplicit solves one implicit (CG) step on sf10 and models
// the step cost on the T3E across the sweep, with the allreduce share
// implicit methods add per iteration. It fails if CG does not converge.
func extensionImplicit() (*report.Table, error) {
	m, err := SF10.Mesh()
	if err != nil {
		return nil, err
	}
	sys, err := fem.Assemble(m, Material())
	if err != nil {
		return nil, err
	}
	a := solver.Shifted{K: sys.K, MassNode: sys.MassNode, Sigma: 25}
	n := a.Dim()
	rhs := make([]float64, n)
	rhs[2] = 1e3
	inv := make([]float64, n)
	for i, d := range a.Diagonal() {
		inv[i] = 1 / d
	}
	res, err := solver.CG(a, rhs, make([]float64, n), solver.Config{MaxIter: 3000, Tol: 1e-8, Precondition: inv})
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("CG did not converge in %d iterations", res.Iterations)
	}
	dots := int(float64(res.DotProducts)/float64(res.Iterations) + 0.5)
	rows, err := Properties(SF10, PECounts, partition.RCB)
	if err != nil {
		return nil, err
	}
	t3e := machine.T3E()
	t := report.New("Extension: implicit (CG) step cost on the T3E (sf10)",
		"PEs", "explicit step", "implicit step", "allreduce share")
	for _, r := range rows {
		step, frac := model.ImplicitStep(r.App(), r.P, dots, t3e.Tf, t3e.Tl, t3e.Tw)
		tcomp, tcomm := model.PhaseTimes(r.App(), t3e.Tf, t3e.Tl, t3e.Tw)
		t.AddRow(fmt.Sprint(r.P), report.SI(tcomp+tcomm, "s"),
			report.SI(step, "s"), report.F(100*frac, 1)+"%")
	}
	return t, nil
}
