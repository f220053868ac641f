// Command quakesim runs the actual earthquake simulation: it assembles
// the elastodynamic system for a scenario, integrates it with the
// explicit central-difference scheme (sequentially, timing the SMVP
// share of the run the way Section 2.3 does), then executes the
// distributed SMVP on goroutine PEs and compares measured phase times
// against the closed-form model and the discrete-event simulator.
//
// Usage:
//
//	quakesim                       # sf10, 300 steps, 8 PEs
//	quakesim -scenario sf5 -steps 1000 -pes 16
//	quakesim -faults 'kill:pe=3,iter=40' -checkpoint ck/   # lose a PE, shrink, resume
//	quakesim -resume ck/                                   # restart from the latest snapshot
//	quakesim -rebalance -faults 'kill:pe=3,iter=20;revive:pe=3,iter=40'
//	                                       # kill, shrink, revive, regrow, rebalance stragglers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/quake"
	rec "repro/internal/recover"
	"repro/internal/report"
	"repro/internal/solver"
)

// options is the validated CLI configuration. Flag parsing and
// semantic validation are separate steps so bad combinations are
// refused with usage before any meshing starts, and so tests can
// drive both run() and the validation table directly.
type options struct {
	scenario string
	steps    int
	pes      int
	seis     string
	trace    string
	metrics  string
	faults   string
	// checkpoint is the directory durable snapshots are written to;
	// every is their iteration period. everySet records whether -every
	// was given explicitly, so "-every" without "-checkpoint" can be
	// rejected instead of silently ignored.
	checkpoint string
	every      int
	everySet   bool
	// resume is the directory the run restarts from.
	resume string
	// http is the observability listen address (expvar, Prometheus
	// /metrics, JSON snapshot, pprof, flight ring); "" disables it.
	http string
	// flight is the flight-recorder auto-dump path; "" leaves dumping
	// disarmed. main() defaults it when a fault plan is armed.
	flight string
	// rebalance arms straggler-driven live rebalancing in the recovery
	// supervisor: measured per-PE compute imbalance above the hysteresis
	// threshold migrates boundary layers off stragglers at checkpoints.
	rebalance bool

	// plan is the parsed -faults plan, filled in by validate.
	plan *fault.Plan

	// httpReady, when non-nil, receives the bound -http address once the
	// server is up (non-blocking send). Tests use it to query the
	// endpoints mid-solve.
	httpReady chan string
}

// parseOptions binds the flag set. Parse errors (unknown flags, bad
// syntax) are returned after the FlagSet has printed usage to out.
func parseOptions(args []string, out io.Writer) (*options, error) {
	opt := &options{}
	fs := flag.NewFlagSet("quakesim", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&opt.scenario, "scenario", "sf10", "scenario name")
	fs.IntVar(&opt.steps, "steps", 300, "time steps to integrate")
	fs.IntVar(&opt.pes, "pes", 8, "PE count for the distributed SMVP")
	fs.StringVar(&opt.seis, "seis", "", "write receiver seismograms as CSV to this file")
	fs.StringVar(&opt.trace, "trace", "", "write a Chrome trace_event JSON file here")
	fs.StringVar(&opt.metrics, "metrics", "", "write a metrics snapshot JSON file here")
	fs.StringVar(&opt.faults, "faults", "", "fault-injection soak: arm this plan (e.g. 'corrupt:pe=1->0,iter=4,bit=62' or 'kill:pe=3,iter=40') on a supervised CG solve, checked against a fault-free reference and certified on the disarmed operator; a kill shrinks onto the survivors; see docs/RELIABILITY.md")
	fs.StringVar(&opt.checkpoint, "checkpoint", "", "write durable solver checkpoints to this directory (see -every)")
	fs.IntVar(&opt.every, "every", 10, "checkpoint period in CG iterations (requires -checkpoint)")
	fs.StringVar(&opt.resume, "resume", "", "resume the solve from the latest checkpoint in this directory")
	fs.StringVar(&opt.http, "http", "", "serve live observability on this address (e.g. ':8080'): Prometheus /metrics, /metrics.json, /flight, expvar /debug/vars, /debug/pprof")
	fs.StringVar(&opt.flight, "flight", "", "arm the flight recorder to dump its ring to this file when a PE faults or a recovery fires (defaults to quakesim.flight.trace.json when -faults is set)")
	fs.BoolVar(&opt.rebalance, "rebalance", false, "arm straggler-driven live rebalancing: when measured per-PE compute imbalance stays above the threshold, migrate boundary layers off the straggler at a checkpoint; see docs/RELIABILITY.md")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "every" {
			opt.everySet = true
		}
	})
	if fs.NArg() > 0 {
		fmt.Fprintf(out, "quakesim: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments")
	}
	return opt, nil
}

// validate enforces the cross-flag rules up front: counts are
// positive, the fault plan parses, a checkpoint period is sane, and a
// resume directory actually exists. It fills opt.plan as a side
// effect.
func (opt *options) validate() error {
	if opt.steps < 1 {
		return fmt.Errorf("-steps must be at least 1, got %d", opt.steps)
	}
	if opt.pes < 1 {
		return fmt.Errorf("-pes must be at least 1, got %d", opt.pes)
	}
	if opt.faults != "" {
		plan, err := fault.Parse(opt.faults)
		if err != nil {
			return err
		}
		opt.plan = plan
	}
	if opt.checkpoint != "" && opt.every < 1 {
		return fmt.Errorf("-checkpoint needs a positive -every, got %d", opt.every)
	}
	if opt.everySet && opt.checkpoint == "" {
		return fmt.Errorf("-every is only meaningful with -checkpoint")
	}
	if opt.resume != "" {
		fi, err := os.Stat(opt.resume)
		if err != nil {
			return fmt.Errorf("-resume directory: %w", err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("-resume: %s is not a directory", opt.resume)
		}
	}
	return nil
}

func main() {
	opt, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2) // the FlagSet already printed the problem and usage
	}
	if err := opt.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "quakesim:", err)
		fmt.Fprintln(os.Stderr, "run 'quakesim -h' for usage")
		os.Exit(2)
	}
	// CLI nicety only (direct run() callers opt in explicitly): a fault
	// soak without a dump destination still gets its post-mortem.
	if opt.flight == "" && opt.faults != "" {
		opt.flight = "quakesim.flight.trace.json"
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "quakesim:", err)
		os.Exit(1)
	}
}

// smvpReps is how many distributed SMVPs are timed before the
// distributed application runs.
const smvpReps = 5

func run(opt *options) error {
	name, steps, pes := opt.scenario, opt.steps, opt.pes
	seisPath, tracePath, metricsPath := opt.seis, opt.trace, opt.metrics
	// Reject a malformed plan before spending minutes simulating; the
	// soak itself runs last. (validate() already parsed CLI plans; this
	// covers direct run() callers.)
	plan := opt.plan
	if plan == nil && opt.faults != "" {
		var err error
		if plan, err = fault.Parse(opt.faults); err != nil {
			return err
		}
	}
	if opt.flight != "" {
		obs.FlightRecorder.SetDumpPath(opt.flight)
		defer obs.FlightRecorder.SetDumpPath("")
	}
	if opt.http != "" {
		// Live inspection implies telemetry: enable the registry so the
		// endpoints have something to serve.
		obs.SetEnabled(true)
		addr, shutdown, err := export.Serve(opt.http)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		defer shutdown(context.Background())
		fmt.Printf("observability: http://%s/ (metrics, flight ring, pprof)\n", addr)
		if opt.httpReady != nil {
			select {
			case opt.httpReady <- addr:
			default:
			}
		}
	}
	if tracePath != "" || metricsPath != "" {
		obs.SetEnabled(true)
		obs.StartTrace()
		defer func() {
			obs.SetEnabled(false)
			if tr := obs.StopTrace(); tr != nil {
				report.PhaseSummary("Measured phase summary", tr.PhaseStats()).Render(os.Stdout)
				if tracePath != "" {
					if err := writeTrace(tracePath, tr); err != nil {
						fmt.Fprintln(os.Stderr, "quakesim: trace:", err)
					} else {
						fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", tracePath)
					}
				}
			}
			if metricsPath != "" {
				if err := writeMetrics(metricsPath); err != nil {
					fmt.Fprintln(os.Stderr, "quakesim: metrics:", err)
				} else {
					fmt.Printf("wrote metrics snapshot to %s\n", metricsPath)
				}
			}
		}()
	}
	s, err := quake.ByName(name)
	if err != nil {
		return err
	}
	m, err := s.Mesh()
	if err != nil {
		return err
	}
	mat := quake.Material()
	fmt.Printf("%s: %s nodes, %s elements\n", s.Name,
		report.Int(int64(m.NumNodes())), report.Int(int64(m.NumElems())))

	sys, err := fem.Assemble(m, mat)
	if err != nil {
		return err
	}
	dt := sys.StableDt(0.5)
	fmt.Printf("assembled K: %s nonzeros; stable dt %s\n",
		report.Int(int64(sys.K.NNZ())), report.SI(dt, "s"))

	// Sequential run: measure the SMVP share of total time (the paper
	// reports over 80% for the real applications).
	src := fem.PointSource{
		Location:  geom.V(25, 25, 6),
		Direction: geom.V(0, 0, 1),
		Amplitude: 1e3,
		PeakFreq:  1 / s.Period,
		Delay:     1.2 * s.Period,
	}
	rcv := sys.NearestNode(geom.V(25, 25, 0))
	res, err := sys.Run(fem.SimConfig{Dt: dt, Steps: steps, Source: src, Receivers: []int32{rcv}})
	if err != nil {
		return err
	}
	tf := res.SMVPSeconds / float64(res.FlopsSMVP)
	fmt.Printf("integrated %d steps in %.2fs; SMVP share %.1f%% (paper: >80%%)\n",
		res.Steps, res.TotalSeconds, 100*res.SMVPShare())
	fmt.Printf("achieved T_f = %s (%.0f MFLOPS sustained)\n",
		report.SI(tf, "s/flop"), model.MFLOPS(tf))
	var peak float64
	for _, v := range res.Seismograms[0] {
		if v > peak {
			peak = v
		}
	}
	fmt.Printf("peak surface displacement at basin center: %.3g\n\n", peak)
	if seisPath != "" {
		if err := writeSeismograms(seisPath, dt, res.Seismograms); err != nil {
			return err
		}
		fmt.Printf("wrote seismograms to %s\n\n", seisPath)
	}

	// Distributed SMVP on goroutine PEs.
	pt, err := partition.PartitionMesh(m, pes, partition.RCB, 1)
	if err != nil {
		return err
	}
	pr, err := partition.Analyze(m, pt)
	if err != nil {
		return err
	}
	dist, err := par.NewDist(m, mat, pt, pr)
	if err != nil {
		return err
	}
	defer dist.Close()
	x := make([]float64, 3*m.NumNodes())
	for i := range x {
		x[i] = float64(i%11) * 0.1
	}
	y := make([]float64, len(x))
	var tm *par.Timing
	for i := 0; i < smvpReps; i++ {
		if tm, err = dist.SMVP(y, x); err != nil {
			return err
		}
	}
	fmt.Printf("distributed SMVP on %d goroutine PEs: compute %s, exchange %s\n",
		pes, report.SI(tm.MaxCompute().Seconds(), "s"), report.SI(tm.MaxComm().Seconds(), "s"))

	// The full distributed application: same scheme, goroutine PEs.
	dsim, err := par.NewDistSim(dist, sys.MassNode, nil)
	if err != nil {
		return err
	}
	distSteps := steps
	if distSteps > 200 {
		distSteps = 200
	}
	dres, err := dsim.Run(m.Coords, fem.SimConfig{
		Dt: dt, Steps: distSteps, Source: src,
	})
	if err != nil {
		return err
	}
	fmt.Printf("distributed application (%d steps on %d PEs): multiply %s, exchange %s per run\n",
		dres.Steps, pes,
		report.SI(dres.ComputeSeconds, "s"), report.SI(dres.ExchangeSeconds, "s"))

	// Model vs discrete-event simulation of the exchange, on the T3E.
	app := model.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
	t3e := machine.T3E()
	sched, err := comm.FromMatrix(pr.Msg)
	if err != nil {
		return err
	}
	modelT := machine.ModelCommTime(sched, t3e)
	exactT := machine.ExactCommTime(sched, t3e)
	sim, err := machine.Simulate(sched, t3e, machine.Crossbar{Transit: 1e-6})
	if err != nil {
		return err
	}
	fmt.Printf("\nexchange phase on %s: model %s, exact per-PE %s, discrete sim %s (β=%.2f)\n",
		t3e.Name, report.SI(modelT, "s"), report.SI(exactT, "s"), report.SI(sim.CommTime, "s"), pr.Beta())
	fmt.Printf("modeled efficiency of %s on %s/%d: %.3f\n",
		t3e.Name, s.Name, pes, model.Efficiency(app, t3e.Tf, t3e.Tl, t3e.Tw))

	// Fault plans, checkpoints, resume and rebalancing: run last,
	// because a plan with a panic event poisons the Dist for good (the
	// containment being demonstrated).
	if plan != nil || opt.checkpoint != "" || opt.resume != "" || opt.rebalance {
		return supervisedRun(opt, plan, dist, sys, m, mat, pt)
	}
	return nil
}

// supervisedRun solves the shifted elastodynamic system under the
// recovery supervisor, the one path every fault plan takes: it writes
// durable checkpoints when -checkpoint is set, restarts from the latest
// snapshot when -resume is set, shrinks onto the survivors when the
// plan kills a PE, regrows onto revived slots when the plan revives
// one, and — with -rebalance — migrates boundary layers off measured
// stragglers at checkpoints. The supervisor owns the fault injector;
// the plan is handed over unarmed.
//
// Three checks hold every run: a fault-free reference solve is taken
// before arming; a finished answer must carry a certificate
// ‖b − A·x‖/‖b‖ within 10·tol on the final Dist, checked after
// disarming it; and a fault the supervisor does not absorb (a panic
// under the shrink policy, a loss past its bounds) must leave a
// poisoned Dist that refuses the next kernel — the documented
// containment, reported as such rather than as an error.
func supervisedRun(opt *options, plan *fault.Plan, dist *par.Dist, sys *fem.System,
	m *mesh.Mesh, mat *material.Model, pt *partition.Partition) error {
	fmt.Printf("\nsupervised solve: checkpoint=%q every=%d resume=%q rebalance=%v plan=%q\n",
		opt.checkpoint, opt.every, opt.resume, opt.rebalance, opt.faults)

	const tol = 1e-8
	op := par.Operator{D: dist, Shift: 20, MassNode: sys.MassNode}
	n := op.Dim()
	b := make([]float64, n)
	b[2] = 50
	b[n-1] = -20
	meshID := rec.MeshID(m)

	var store *rec.Store
	if opt.checkpoint != "" {
		var err error
		if store, err = rec.NewStore(opt.checkpoint); err != nil {
			return err
		}
	}

	cfg := rec.SuperviseConfig{
		Solver: solver.Config{MaxIter: 4 * n, Tol: tol, CheckpointEvery: opt.every},
		Store:  store,
		MeshID: meshID,
		Plan:   plan,
	}
	if opt.resume != "" {
		rs, err := rec.NewStore(opt.resume)
		if err != nil {
			return err
		}
		ck, path, err := rs.Latest()
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		if ck.MeshID != meshID {
			return fmt.Errorf("-resume: checkpoint %s was taken on a different mesh (id %016x, this run %016x)",
				path, ck.MeshID, meshID)
		}
		if int(ck.P) != pt.P {
			return fmt.Errorf("-resume: checkpoint %s was taken at %d PEs; rerun with -pes %d", path, ck.P, ck.P)
		}
		if err := cfg.ResumeFrom(ck); err != nil {
			return fmt.Errorf("-resume: %s: %w", path, err)
		}
		if plan == nil && cfg.Plan != nil {
			fmt.Printf("re-armed the remaining fault plan from the checkpoint: %q\n", ck.FaultPlan)
		}
		fmt.Printf("resuming from %s at CG iteration %d (global kernel count %d)\n", path, ck.Iter, ck.FaultIter)
	}

	// The reference runs on the unarmed Dist, before the rebalancer's
	// accumulators are switched on.
	ref := make([]float64, n)
	rres, err := solver.CG(op, b, ref, solver.Config{MaxIter: 4 * n, Tol: tol})
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if !rres.Converged {
		return fmt.Errorf("reference solve did not converge: %+v", rres)
	}
	fmt.Printf("fault-free reference: %d iterations, residual %.3g\n", rres.Iterations, rres.Residual)

	if opt.rebalance {
		// The rebalancer's windows come from the live per-PE accumulators.
		obs.SetEnabled(true)
		cfg.Rebalance = true
	}

	x := make([]float64, n)
	out, err := rec.Supervise(dist, &rec.System{Mesh: m, Material: mat, Part: pt, Shift: 20, MassNode: sys.MassNode},
		b, x, cfg)
	if out != nil && out.Dist != nil && out.Dist != dist {
		defer out.Dist.Close() // rebuilt after a transition; the original is closed by Supervise
	}
	if err != nil {
		if !errors.Is(err, par.ErrPoisoned) {
			return fmt.Errorf("supervised solve: %w", err)
		}
		fmt.Printf("contained PE failure: %v\n", err)
		if _, e := out.Dist.SMVP(make([]float64, n), x); e == nil {
			return fmt.Errorf("poisoned Dist accepted a kernel")
		}
		fmt.Println("poisoned Dist fails fast on every later kernel, as documented")
		return nil
	}
	if out.Shrinks > 0 {
		fmt.Printf("lost PE(s) %v mid-solve; shrank %d time(s) and resumed from the last checkpoint\n",
			out.DeadPEs, out.Shrinks)
	}
	if out.Grows > 0 {
		fmt.Printf("revived PE slot(s) %v; regrew the partition %d time(s) back to %d PEs\n",
			out.RevivedPEs, out.Grows, out.Part.P)
	}
	if out.Migrations > 0 {
		fmt.Printf("straggler rebalancing migrated %d boundary layer(s)\n", out.Migrations)
	}
	if opt.rebalance && out.FinalLambda > 0 {
		fmt.Printf("final measured compute imbalance λ = %.3f\n", out.FinalLambda)
	}
	if !out.Result.Converged {
		return fmt.Errorf("supervised solve did not converge: %+v", out.Result)
	}

	// Re-check the certificate on the disarmed final operator, which no
	// fault of the armed solve touches.
	if _, err := out.Dist.InjectFaults(nil); err != nil {
		return fmt.Errorf("disarm: %w", err)
	}
	ax := make([]float64, n)
	final := par.Operator{D: out.Dist, Shift: 20, MassNode: sys.MassNode}
	if err := final.Apply(ax, x); err != nil {
		return fmt.Errorf("certificate: %w", err)
	}
	var rr, bb, drift, scale float64
	for i := range b {
		rr += (b[i] - ax[i]) * (b[i] - ax[i])
		bb += b[i] * b[i]
		drift = math.Max(drift, math.Abs(x[i]-ref[i]))
		scale = math.Max(scale, math.Abs(ref[i]))
	}
	cert := math.Sqrt(rr / bb)
	fmt.Printf("gated solve on %d PEs: %d iterations, residual %.3g, certificate %.3g, restarts %d\n",
		out.Part.P, out.Result.Iterations, out.Result.Residual, cert, out.Result.Restarts)
	fmt.Printf("max deviation from fault-free answer: %.3g (solution scale %.3g)\n", drift, scale)
	if !(cert <= 10*tol) {
		return fmt.Errorf("answer's certificate %.3g exceeds 10·tol = %g", cert, 10*tol)
	}
	if store != nil {
		fmt.Printf("%d durable checkpoint(s) in %s; restart with: quakesim -scenario %s -pes %d -resume %s\n",
			out.Result.Checkpoints, store.Dir(), opt.scenario, out.Part.P, store.Dir())
	}
	return nil
}

// writeTrace serializes the tracer to path.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics serializes the default registry's snapshot to path.
func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSeismograms emits one CSV row per step: time then |u| at each
// receiver.
func writeSeismograms(path string, dt float64, seis [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprint(f, "t")
	for r := range seis {
		fmt.Fprintf(f, ",receiver%d", r)
	}
	fmt.Fprintln(f)
	if len(seis) == 0 {
		return nil
	}
	for step := range seis[0] {
		fmt.Fprintf(f, "%g", float64(step)*dt)
		for r := range seis {
			fmt.Fprintf(f, ",%g", seis[r][step])
		}
		fmt.Fprintln(f)
	}
	return nil
}
