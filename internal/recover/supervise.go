package recover

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/solver"
)

var (
	ckptErrors = obs.GetCounter("recover.checkpoint.errors")
	ckptWaitUS = obs.GetHistogram("recover.checkpoint.wait_us")
	resumes    = obs.GetCounter("recover.resumes")
)

// ckptWriter lands one supervised solve's snapshots on disk off the
// goroutine that drives CG: all of them, in the order taken. One write is
// in flight and one waits in the channel, so the solver runs at most two
// checkpoint intervals ahead of the disk and blocks beyond that.
type ckptWriter struct {
	ch   chan Checkpoint
	done chan struct{}
}

func startCkptWriter(store *Store) *ckptWriter {
	w := &ckptWriter{ch: make(chan Checkpoint, 1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for ck := range w.ch {
			if _, err := store.Save(&ck); err != nil {
				ckptErrors.Add(1)
			}
		}
	}()
	return w
}

// put hands ck to the writer, which owns its slices from here on. The
// time it blocks on a full queue is observed as recover.checkpoint.wait_us
// (0 when the disk keeps up).
func (w *ckptWriter) put(ck Checkpoint) {
	start := time.Now()
	w.ch <- ck
	ckptWaitUS.Observe(time.Since(start).Microseconds())
}

// drain returns once every snapshot handed to put is on disk (or counted
// as an error) and the writer goroutine has exited.
func (w *ckptWriter) drain() {
	close(w.ch)
	<-w.done
}

// System describes everything needed to rebuild the distributed
// operator at a different width after a PE loss or revival. The mesh,
// material, and shift never change across transitions; the partition is
// the *initial* one and is replaced on every shrink, grow, or rebalance.
type System struct {
	Mesh     *mesh.Mesh
	Material *material.Model
	Part     *partition.Partition
	// Shift and MassNode parameterize the CG operator exactly as
	// par.Operator does.
	Shift    float64
	MassNode []float64
	// NodeOf is the PE→node map of the exchange plan at the initial
	// width (nil: every PE its own node, the flat exchange); it is
	// recomposed past each dead or revived PE and reinstalled on every
	// Dist the supervisor rebuilds.
	NodeOf func(pe int32) int32
}

// maxGrows bounds the regrowths per solve; revive events past it are
// dropped.
const maxGrows = 3

// SuperviseConfig is the recovery policy around a solver.Config.
type SuperviseConfig struct {
	// Solver configures every CG attempt. Its Interrupt must be nil:
	// the supervisor owns that hook for its own transitions, and a
	// caller ends a solve with Stop.
	Solver solver.Config
	// MaxShrinks bounds the worker losses absorbed per solve — shrinks
	// and replacements alike (default 3; negative absorbs none). A
	// partition also cannot shrink below one PE.
	MaxShrinks int
	// Replace selects the loss policy. Nil shrinks onto the survivors of
	// a killed PE. Non-nil answers every worker death — a kill fault, a
	// genuine PE panic, a poisoned barrier (deadPE −1) — by asking the
	// caller for a fresh Dist on the same full-width partition and
	// resuming on it at resumeIter. The supervisor has already closed the
	// dead Dist; the replacement arrives unarmed and carrying whatever
	// aggregation the caller wants (NodeOf is not reinstalled on it).
	// Partition and operator are unchanged, so the replaced trajectory is
	// bit-identical to an uninterrupted one — a death before the first
	// snapshot restarts from Solver.Resume or, without one, from the x
	// handed in.
	Replace func(deadPE, resumeIter int) (*par.Dist, error)
	// Store, when non-nil, receives a durable checkpoint for every
	// solver snapshot (Solver.CheckpointEvery, default 10), tagged with
	// MeshID (see MeshID). Checkpoints carry the live partition, the
	// *remaining* fault plan and the global kernel count, so a restarted
	// process re-arms exactly the events that have not fired (ResumeFrom).
	// Snapshots are written in order by a goroutine of their own, at most
	// two checkpoint intervals behind the solver, and every one delivered
	// is on disk when Supervise returns, however it returns. A write
	// failure is counted under recover.checkpoint.errors but does not
	// abort the solve — durability degrades before availability does.
	Store  *Store
	MeshID uint64
	// Plan is the fault plan to arm. The supervisor owns the injector:
	// it arms a clamped copy on every rebuilt Dist and consumes revive
	// events itself at checkpoint boundaries (the injector never fires
	// them). Callers must not pre-arm the Dist.
	Plan *fault.Plan
	// AdvanceKernels is the global kernel count already executed before
	// this call (the durable-checkpoint resume path); plan events at or
	// below it are treated as already fired.
	AdvanceKernels int64
	// Stop, polled at checkpoint boundaries, ends the supervised solve
	// when it returns true: Supervise returns the partial outcome with
	// solver.ErrInterrupted instead of resuming. This is how callers
	// impose a wall deadline.
	Stop func() bool
	// Rebalance arms straggler-driven rebalancing: at every checkpoint
	// the supervisor reads the per-PE compute accumulators for the
	// window since the previous checkpoint, and when the hysteresis
	// trips (see Rebalancer) migrates boundary layers at that
	// checkpoint. Requires obs metrics enabled to see any windows.
	Rebalance bool
}

// ResumeFrom points cfg at a durable checkpoint: the solver restarts from
// the snapshot's state, the kernels the first run already executed are
// not replayed, and — when the caller armed no plan of its own — the
// snapshot's remaining fault plan is re-armed, so the restarted process
// keeps absorbing the events that never fired.
func (cfg *SuperviseConfig) ResumeFrom(ck *Checkpoint) error {
	cfg.Solver.Resume = ck.State()
	cfg.AdvanceKernels = ck.FaultIter
	if cfg.Plan == nil && ck.FaultPlan != "" {
		plan, err := fault.Parse(ck.FaultPlan)
		if err != nil {
			return fmt.Errorf("recover: checkpoint fault plan %q: %w", ck.FaultPlan, err)
		}
		cfg.Plan = plan
	}
	return nil
}

// SuperviseOutcome reports a supervised solve.
type SuperviseOutcome struct {
	// Result is the CG result of the last attempt: final on success,
	// partial when Supervise returns an error.
	Result *solver.Result
	// Shrinks counts PE losses absorbed by shrinking; DeadPEs lists them
	// in the PE numbering current at each death. Replacements counts the
	// worker deaths absorbed through Replace.
	Shrinks      int
	DeadPEs      []int
	Replacements int
	// Part and Dist are the partition and operator that finished the
	// solve — the caller's originals when nothing was lost, rebuilt or
	// replaced ones otherwise. The caller owns Dist and must Close it.
	Part *partition.Partition
	Dist *par.Dist
	// Grows counts regrowths; RevivedPEs lists the slots in the PE
	// numbering current at each regrowth.
	Grows      int
	RevivedPEs []int
	// Migrations counts boundary layers moved by rebalance passes.
	Migrations int
	// FinalLambda is the last measured compute imbalance λ (0 when
	// rebalancing was disarmed or no window was ever measured).
	FinalLambda float64
	// Kernels is the global kernel count, for chaining restarts. Once
	// the plan is fully consumed the injector disarms and the count
	// freezes at the last transition; with events still armed it is the
	// final count.
	Kernels int64
}

// clampPlan returns a copy of p holding only the events still meaningful
// at the given width after `after` kernels: timed events already fired
// are dropped, events naming PEs outside the width are dropped, and
// revive slots beyond the width clamp to an append at the top. Returns
// nil when nothing remains (disarm).
func clampPlan(p *fault.Plan, width int, after int64) *fault.Plan {
	if p == nil {
		return nil
	}
	out := &fault.Plan{Seed: p.Seed}
	for _, e := range p.Events {
		if e.Iter != fault.EveryIter && e.Iter <= after {
			continue
		}
		if e.Kind == fault.Revive {
			if e.PE > width {
				e.PE = width
			}
			if e.PE < 0 {
				continue
			}
		} else if e.PE != fault.Unset && (e.PE < 0 || e.PE >= width) {
			continue
		}
		if e.Dst != fault.Unset && (e.Dst < 0 || e.Dst >= width) {
			continue
		}
		out.Events = append(out.Events, e)
	}
	if len(out.Events) == 0 {
		return nil
	}
	return out
}

// Supervise is the one loop that runs CG on d and re-runs it after an
// interruption, keeping the solve alive — and well — through sustained
// churn. A dead worker is answered by the loss policy: shrink to the
// survivors (Shrink), or, with Replace set, resume on a fresh full-width
// Dist from the caller. Revive events in the plan regrow the partition
// onto the recovered PE at the next checkpoint boundary (Grow), and, when
// Rebalance is armed, measured per-PE compute imbalance above the
// hysteresis threshold migrates boundary layers off stragglers at a
// checkpoint (Rebalance). Every transition re-arms the remaining fault
// plan with the global kernel count fast-forwarded and resumes CG from
// the last consistent checkpoint; the ones that rebuild the operator
// build it from the outgoing Dist's operators — poisoned or superseded,
// perhaps already closed, but still readable — integrating only the
// elements whose rows the transition moved (par.NewDistSharing), and
// recompose the two-level aggregation map. With no plan, no fault and no
// Stop it is exactly one solver.CG call. Software faults under the shrink
// policy, and losses beyond the bounds, propagate unchanged.
//
// The global problem (b, x, the solver state) is indexed by mesh node,
// not by PE, so a checkpoint taken at width p resumes at any other
// width: only the operator's internals changed. A resumed trajectory on
// a rebuilt partition is not bit-identical to a fault-free run — the
// operator sums partial results in a different order — but it is the
// same CG iteration on the same SPD system and converges to the same
// tolerance.
func Supervise(d *par.Dist, sys *System, b, x []float64, cfg SuperviseConfig) (*SuperviseOutcome, error) {
	if cfg.Solver.Interrupt != nil {
		return &SuperviseOutcome{Part: sys.Part, Dist: d, Kernels: cfg.AdvanceKernels},
			errors.New("recover: Supervise owns Solver.Interrupt; end a solve with Stop")
	}
	if cfg.MaxShrinks == 0 {
		cfg.MaxShrinks = 3
	}
	scfg := cfg.Solver
	if scfg.CheckpointEvery <= 0 {
		scfg.CheckpointEvery = 10
	}
	userCk := scfg.OnCheckpoint

	out := &SuperviseOutcome{Part: sys.Part, Dist: d}
	nodeOf := sys.NodeOf

	// The injector's Iter() is kept global across rebuilds: every fresh
	// injector is fast-forwarded by the kernels all its predecessors
	// executed, so plan iters keep meaning "kernel invocations since the
	// original arming".
	base := cfg.AdvanceKernels
	var in *fault.Injector
	arm := func(d *par.Dist) error {
		clamped := clampPlan(cfg.Plan, d.P, base)
		var err error
		if in, err = d.InjectFaults(clamped); err != nil {
			return fmt.Errorf("recover: arming fault plan: %w", err)
		}
		if in != nil {
			in.Advance(base)
		}
		return nil
	}
	globalIter := func() int64 {
		if in != nil {
			return in.Iter()
		}
		return base
	}
	// fail stamps the kernel count on the way out of every error path.
	fail := func(err error) (*SuperviseOutcome, error) {
		out.Kernels = globalIter()
		return out, err
	}
	if err := arm(d); err != nil {
		return fail(err)
	}

	// Pending revives, consumed (or dropped past maxGrows) in order.
	var pending []fault.Event
	if cfg.Plan != nil {
		for _, e := range cfg.Plan.Events {
			if e.Kind == fault.Revive && e.Iter > cfg.AdvanceKernels {
				pending = append(pending, e)
			}
		}
		sort.SliceStable(pending, func(a, b int) bool {
			if pending[a].Iter != pending[b].Iter {
				return pending[a].Iter < pending[b].Iter
			}
			return pending[a].PE < pending[b].PE
		})
	}

	var reb Rebalancer
	var prevSnap *obs.Snapshot
	var loads []int64
	wantRebalance := false

	// last is the state the next attempt resumes from: the newest
	// snapshot; before the first one, whatever the caller resumed from;
	// failing that nil — a cold start from x, which is still the x handed
	// in, because CG gathers x only from a live operator and a poisoned
	// Dist fails every kernel fast.
	last := scfg.Resume
	var writer *ckptWriter
	if cfg.Store != nil {
		writer = startCkptWriter(cfg.Store)
		defer writer.drain()
	}
	scfg.OnCheckpoint = func(st *solver.State) {
		last = st
		if writer != nil {
			ck := Checkpoint{
				MeshID:    cfg.MeshID,
				P:         int32(out.Part.P),
				ElemPE:    out.Part.ElemPE,
				Iter:      int64(st.Iter),
				Rho:       st.Rho,
				X:         st.X,
				R:         st.R,
				PDir:      st.P,
				FaultIter: globalIter(),
			}
			if p := clampPlan(cfg.Plan, out.Part.P, globalIter()); p != nil {
				ck.FaultPlan = p.String()
			}
			writer.put(ck)
		}
		if userCk != nil {
			userCk(st)
		}
	}
	scfg.Interrupt = func(int) bool {
		due := len(pending) > 0 && pending[0].Iter <= globalIter()
		if cfg.Rebalance {
			cur := obs.Default.Snapshot()
			if w, ok := analyze.FromSnapshots(cur, prevSnap); ok && len(w.ComputeNS) >= out.Part.P {
				// The accumulator registry never shrinks; trim to width.
				perPE := w.ComputeNS[:out.Part.P]
				im := analyze.ImbalanceOf(perPE)
				out.FinalLambda = im.Lambda
				if reb.Observe(im) {
					wantRebalance = true
					loads = append(loads[:0], perPE...)
				}
			}
			prevSnap = cur
		}
		if cfg.Stop != nil && cfg.Stop() {
			return true
		}
		return due || wantRebalance
	}

	// install swaps the live operator for r's and restores aggregation
	// and the fault plan on it. The old Dist must already be closed.
	install := func(r *Rebuilt) error {
		if err := r.Dist.SetAggregation(nodeOf); err != nil {
			r.Dist.Close()
			return fmt.Errorf("recover: reinstalling aggregation: %w", err)
		}
		out.Dist, out.Part = r.Dist, r.Partition
		if cfg.Rebalance {
			// Per-PE history predates the new layout; start the next
			// analysis window fresh.
			prevSnap = obs.Default.Snapshot()
		}
		return arm(r.Dist)
	}

	for {
		op := par.Operator{D: out.Dist, Shift: sys.Shift, MassNode: sys.MassNode}
		res, err := solver.CG(op, b, x, scfg)
		out.Result = res
		if err == nil {
			out.Kernels = globalIter()
			return out, nil
		}

		if errors.Is(err, solver.ErrInterrupted) {
			if cfg.Stop != nil && cfg.Stop() {
				// The caller asked to stop; hand back the partial state
				// instead of resuming past the interrupt.
				return fail(err)
			}
			// Consume every due revive, oldest first.
			for len(pending) > 0 && pending[0].Iter <= globalIter() {
				ev := pending[0]
				pending = pending[1:]
				if out.Grows >= maxGrows {
					continue
				}
				slot := min(ev.PE, out.Part.P)
				obs.RecordFlight(obs.FlightRecovery, "recover.revive", slot, ev.Iter, 0)
				base = globalIter()
				grown, gerr := grow(sys.Mesh, sys.Material, out.Part, slot, out.Dist.Operators(out.Part))
				if gerr != nil {
					return fail(fmt.Errorf("recover: growing onto revived PE %d: %w", slot, gerr))
				}
				out.Dist.Close() // healthy but superseded
				nodeOf = GrowNodeOf(nodeOf, slot, grown.Donor)
				if ierr := install(grown); ierr != nil {
					return fail(ierr)
				}
				out.Grows++
				out.RevivedPEs = append(out.RevivedPEs, slot)
			}
			if wantRebalance {
				wantRebalance = false
				if len(loads) == out.Part.P {
					base = globalIter()
					moved, moves, rerr := Rebalance(sys.Mesh, sys.Material, out.Part, loads, rebalanceMaxMoves, out.Dist.Operators(out.Part))
					if rerr != nil {
						return fail(fmt.Errorf("recover: rebalancing: %w", rerr))
					}
					if moves > 0 {
						out.Dist.Close()
						if ierr := install(moved); ierr != nil {
							return fail(ierr)
						}
						out.Migrations += moves
					}
				}
			}
		} else {
			dead, died := DeadPE(err)
			if cfg.Replace != nil && !died && errors.Is(err, par.ErrPoisoned) {
				dead, died = -1, true
			}
			if !died || out.Shrinks+out.Replacements >= cfg.MaxShrinks || (cfg.Replace == nil && out.Part.P <= 1) {
				return fail(err)
			}
			base = globalIter()
			out.Dist.Close() // poisoned; release its PE goroutines
			if cfg.Replace != nil {
				resumeIter := 0
				if last != nil {
					resumeIter = last.Iter
				}
				fresh, rerr := cfg.Replace(dead, resumeIter)
				if rerr != nil {
					return fail(fmt.Errorf("recover: replacing the worker after %v: %w", err, rerr))
				}
				out.Dist = fresh
				if aerr := arm(fresh); aerr != nil {
					return fail(aerr)
				}
				out.Replacements++
			} else {
				shrunk, serr := shrink(sys.Mesh, sys.Material, out.Part, dead, out.Dist.Operators(out.Part))
				if serr != nil {
					return fail(fmt.Errorf("recover: shrinking after %v: %w", err, serr))
				}
				nodeOf = ShrinkNodeOf(nodeOf, dead)
				if ierr := install(shrunk); ierr != nil {
					return fail(ierr)
				}
				out.Shrinks++
				out.DeadPEs = append(out.DeadPEs, dead)
			}
		}
		scfg.Resume = last
		resumes.Add(1)
	}
}
