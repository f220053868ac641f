package par

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// This file is the persistent-PE execution engine. The paper's workload
// is one kernel — y = Kx — executed thousands of times, so the runtime
// is built around steady-state reuse: the PE goroutines are created
// once per Dist and parked on a generation barrier between kernels, and
// every buffer a kernel needs (local vectors, per-neighbor exchange
// buffers, the exchange plan, the Timing report) is allocated once at
// construction or when a plan is installed. After the first call, a
// distributed SMVP performs zero heap allocations and zero goroutine
// spawns; see docs/PERFORMANCE.md for the design rationale and the reuse
// rules.

// errClosed is returned by kernels invoked after Dist.Close.
var errClosed = errors.New("par: Dist has been closed")

// ErrPoisoned is wrapped by every error a faulted Dist returns: once a
// PE has panicked mid-kernel, the runtime's workspaces may hold
// partially written exchange buffers, so the Dist refuses all further
// kernels rather than computing on them. Callers detect the sticky
// state with errors.Is(err, ErrPoisoned) and must build a new Dist.
var ErrPoisoned = errors.New("par: Dist poisoned by an earlier PE fault")

// PEFaultError is the concrete error a Dist returns for the kernel in
// which a PE panicked (and, sticky, for every kernel after it). It
// unwraps to ErrPoisoned, so existing errors.Is checks are unchanged;
// the recovery layer additionally inspects PE and Val with errors.As to
// decide how to rebuild — in particular a Val of *fault.Killed means
// the PE is permanently lost and the run must shrink onto the
// survivors rather than retry at full width.
type PEFaultError struct {
	// PE and Iter locate the first recorded panic: the PE goroutine that
	// died and the injector's kernel-invocation index (0 when no
	// injector was armed).
	PE   int
	Iter int64
	// Val is the recovered panic value of the first fault.
	Val any
	// Faults counts all PE panics recovered during the kernel.
	Faults int
}

func (e *PEFaultError) Error() string {
	return fmt.Sprintf("%v: PE %d panicked during kernel %d: %v (%d PE fault(s); build a new Dist)",
		ErrPoisoned, e.PE, e.Iter, e.Val, e.Faults)
}

// Unwrap makes errors.Is(err, ErrPoisoned) hold.
func (e *PEFaultError) Unwrap() error { return ErrPoisoned }

// barrier is a reusable generation (sense-reversing) barrier for n
// parties: await blocks until all n have arrived, releases them, and
// resets for the next round. The mutex/cond pair both parks waiters
// (PEs may outnumber OS threads by far) and provides the happens-before
// edge that lets PEs read each other's buffers after a crossing without
// any further synchronization.
type barrier struct {
	mu     sync.Mutex
	cond   sync.Cond
	n      int
	count  int
	gen    uint64
	broken bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

// await arrives at the barrier and blocks until the round completes.
// It performs no heap allocations. A poisoned barrier never blocks:
// current waiters are released and later arrivals pass straight
// through, which is what lets the runtime drain a kernel whose PE died
// before reaching the phase synchronization.
//
// The return value reports whether the round completed normally. A
// false return means the caller was released by poison, NOT by the
// arrival of all parties — the barrier made no visibility guarantee, so
// kernel bodies must bail out instead of touching shared buffers whose
// writers may still be mid-phase. (The output is garbage either way;
// the coordinator turns the recorded fault into ErrPoisoned.)
func (b *barrier) await() bool {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return false
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	// A round that completed before the poison did complete: a waiter
	// that is slow to wake must see it the way its faster peers did, or
	// PEs would disagree about how far a burst of iterations got.
	ok := gen != b.gen
	b.mu.Unlock()
	return ok
}

// poison permanently breaks the barrier, releasing every waiter.
// Idempotent and safe to call concurrently with await.
func (b *barrier) poison() {
	b.mu.Lock()
	b.broken = true
	b.count = 0
	b.mu.Unlock()
	b.cond.Broadcast()
}

// peWorkspace is the preallocated private state of one persistent PE.
// Buffer ownership rule: a PE writes only its own x/y/send buffers;
// neighbors read send[k] strictly after the phase barrier.
type peWorkspace struct {
	// x, y are the PE's local vectors (3·len(nodes) scalars).
	x, y []float64
	// send[k] carries this PE's partial sums for neighbor k
	// (3·len(shared[k]) scalars). Receivers read it in place, or from
	// the slot a node leader gathered it into — see exchangePlan.
	send [][]float64
	// lower is the number of neighbors with a smaller PE id, i.e. this
	// PE's rank in the canonical (ascending PE id) summation order of
	// its shared nodes. replica lists the local indices of the shared
	// nodes a lower PE owns; self holds this PE's own partials for them
	// while the lower neighbors' are accumulated first. See exchange.
	lower   int
	replica []int32
	self    []float64
	// iter is the fault-plan kernel index of the SMVP this PE is
	// executing (0 while no injector is armed).
	iter int64
	// cg holds the PE-resident CG vectors, allocated by the first
	// resident solve. See cg.go.
	cg cgVectors
}

// peRuntime owns one Dist's long-lived PE goroutines, their
// workspaces, and the dispatch machinery. PE goroutines reference only
// the runtime — never the Dist — so a finalizer on the Dist can shut
// the runtime down when callers forget Close.
type peRuntime struct {
	p int

	// Topology, shared (slice headers) with the owning Dist.
	nodes     [][]int32
	k         []*sparse.SymBCSR
	neighbors [][]int32
	shared    [][][]int32
	owner     []int32
	boundary  [][]int32

	met distMetrics
	ws  []peWorkspace

	// Dispatch: run publishes body under the dispatch mutex, crosses
	// start (p+1 parties) to release the PEs, and crosses done when
	// they finish. The mutex serializes kernels, which is the Dist
	// concurrency contract: concurrent calls are safe and execute one
	// at a time.
	dispatch sync.Mutex
	start    *barrier
	done     *barrier
	// bar separates intra-kernel phases (post | recv) among the p PEs.
	bar  *barrier
	body func(pe int)

	// In-flight kernel arguments and the reused Timing report. tm is
	// overwritten by the next kernel invocation on this Dist.
	x, y []float64
	tm   Timing

	// dotSlots holds the per-PE partial reductions of the resident CG
	// kernels, one cache line (dotStride words) per PE so concurrent PE
	// writes never share a line. Preallocated: reductions allocate
	// nothing.
	dotSlots []float64
	// resident is held for the whole of a PE-resident CG solve (Begin to
	// End): the iteration vectors live in the PE workspaces, so solves
	// on one Dist run one at a time. cg is the in-flight CG kernel's
	// arguments and results, written under the dispatch mutex like x/y.
	resident sync.Mutex
	cg       cgCall

	// Kernel bodies, bound once so dispatching allocates nothing.
	phasedBody func(pe int)
	cgBody     func(pe int)

	// fi is the armed fault injector, nil when disarmed (the production
	// default: every hook site is then a single nil check). iter is the
	// injector's kernel index for the in-flight dispatch (for a CG
	// burst, of the SMVP before its first). Both are written under the
	// dispatch mutex and read by PEs strictly between the start and done
	// barriers, so no further synchronization is needed — the same
	// discipline as body/x/y.
	fi   *fault.Injector
	iter int64

	// plan is the installed exchange plan, never nil: the flat exchange
	// (every PE its own node) until SetAggregation groups PEs onto
	// nodes. Same discipline as fi: swapped under the dispatch mutex,
	// read by PEs between the barriers. See agg.go.
	plan *exchangePlan

	// Panic containment: runBody records recovered PE panics under
	// faultMu; the coordinator collects them after the done barrier and
	// poisons the Dist (sticky, guarded by dispatch).
	faultMu  sync.Mutex
	faults   []peFault
	poisoned error // guarded by dispatch

	closeOnce sync.Once
	closed    bool // guarded by dispatch
}

// peFault records one recovered PE panic.
type peFault struct {
	pe   int
	iter int64
	val  any
}

// newPERuntime builds the workspaces from the Dist's exchange lists and
// starts the persistent PE goroutines.
func newPERuntime(d *Dist) *peRuntime {
	rt := &peRuntime{
		p:         d.P,
		nodes:     d.Nodes,
		k:         d.K,
		neighbors: d.Neighbors,
		shared:    d.Shared,
		owner:     d.Owner,
		boundary:  d.Boundary,
		met:       newDistMetrics(d.P),
		ws:        make([]peWorkspace, d.P),
		dotSlots:  make([]float64, d.P*dotStride),
		start:     newBarrier(d.P + 1),
		done:      newBarrier(d.P + 1),
		bar:       newBarrier(d.P),
		tm: Timing{
			Compute: make([]time.Duration, d.P),
			Comm:    make([]time.Duration, d.P),
		},
	}
	for pe := 0; pe < rt.p; pe++ {
		w := &rt.ws[pe]
		n := len(rt.nodes[pe])
		w.x = make([]float64, 3*n)
		w.y = make([]float64, 3*n)
		w.send = make([][]float64, len(rt.shared[pe]))
		for k, locals := range rt.shared[pe] {
			w.send[k] = make([]float64, 3*len(locals))
		}
		for _, nbr := range rt.neighbors[pe] {
			if int(nbr) < pe {
				w.lower++
			}
		}
		for _, l := range rt.boundary[pe] {
			if rt.owner[rt.nodes[pe][l]] != int32(pe) {
				w.replica = append(w.replica, l)
			}
		}
		w.self = make([]float64, 3*len(w.replica))
	}
	rt.plan = rt.buildPlan(ownNode)
	rt.phasedBody = rt.phasedPE
	rt.cgBody = rt.cgPE
	for pe := 0; pe < rt.p; pe++ {
		go rt.peLoop(pe)
	}
	return rt
}

// peLoop is one persistent PE: park on the start barrier, run the
// published body, park on the done barrier, repeat. A nil body is the
// shutdown signal.
func (rt *peRuntime) peLoop(pe int) {
	for {
		rt.start.await()
		body := rt.body
		if body == nil {
			rt.done.await()
			return
		}
		rt.runBody(pe, body)
		rt.done.await()
	}
}

// runBody executes one kernel body with panic containment. A panic
// (injected or genuine) is recovered on the PE goroutine itself, so the
// PE survives to park again and Close keeps working; the recovered
// value is recorded for the coordinator, the phase barrier is poisoned
// so peers stuck at the intra-kernel synchronization drain instead of
// deadlocking. The kernel's output is garbage after a fault — the
// coordinator turns it into an error and poisons the Dist.
func (rt *peRuntime) runBody(pe int, body func(pe int)) {
	ws := &rt.ws[pe]
	ws.iter = rt.iter
	defer func() {
		if r := recover(); r != nil {
			rt.faultMu.Lock()
			rt.faults = append(rt.faults, peFault{pe: pe, iter: ws.iter, val: r})
			rt.faultMu.Unlock()
			obs.RecordFlight(obs.FlightFault, "par.pe.panic", pe, ws.iter, 0)
			rt.bar.poison()
			obs.RecordFlight(obs.FlightFault, "par.barrier.poison", pe, ws.iter, 0)
		}
	}()
	body(pe)
}

// collectFaults drains the panics recovered during the last kernel and
// converts them into the Dist's sticky poison error. Called by the
// coordinator under the dispatch mutex, after the done barrier.
func (rt *peRuntime) collectFaults() error {
	rt.faultMu.Lock()
	faults := rt.faults
	rt.faults = nil
	rt.faultMu.Unlock()
	if len(faults) == 0 {
		return nil
	}
	f := faults[0]
	err := &PEFaultError{PE: f.pe, Iter: f.iter, Val: f.val, Faults: len(faults)}
	rt.poisoned = err
	// The Dist is now permanently poisoned: dump the flight ring so the
	// spans and fault events leading up to the failure survive it.
	obs.DumpFlight("pe fault poisoned dist")
	return err
}

// launch publishes body to the persistent PEs, waits for all of them to
// finish it, and collects their faults. The done barrier doubles as the
// buffer-reuse fence: no PE can be past it while another still reads a
// send buffer, so the next kernel may overwrite every workspace. Called
// under the dispatch mutex, after usable.
func (rt *peRuntime) launch(body func(pe int)) error {
	rt.body = body
	rt.start.await()
	rt.done.await()
	rt.body = nil
	return rt.collectFaults()
}

// runKernel executes one kernel — body(0..p-1), one SMVP of fault-plan
// time — on the persistent PEs against the global vectors x and y (nil
// for a body that keeps its own state) and returns the runtime's reused
// Timing once all PEs have finished.
func (rt *peRuntime) runKernel(body func(pe int), y, x []float64) (*Timing, error) {
	rt.dispatch.Lock()
	defer rt.dispatch.Unlock()
	if err := rt.usable(); err != nil {
		return nil, err
	}
	if rt.fi != nil {
		rt.iter = rt.fi.BeginKernel()
	}
	rt.x, rt.y = x, y
	err := rt.launch(body)
	rt.x, rt.y = nil, nil
	if err != nil {
		return nil, err
	}
	return &rt.tm, nil
}

// dotStride spaces the per-PE reduction slots one cache line (8
// float64) apart.
const dotStride = 8

// usable reports whether kernels may be dispatched: not closed, not
// poisoned. Called under the dispatch mutex.
func (rt *peRuntime) usable() error {
	if rt.closed {
		return errClosed
	}
	if rt.poisoned != nil {
		return rt.poisoned
	}
	return nil
}

// arm installs (or with nil removes) the fault injector. Called under
// no lock by Dist.InjectFaults; takes the dispatch mutex so the swap
// cannot overlap an in-flight kernel.
func (rt *peRuntime) arm(in *fault.Injector) error {
	rt.dispatch.Lock()
	defer rt.dispatch.Unlock()
	if err := rt.usable(); err != nil {
		return err
	}
	rt.fi = in
	return nil
}

// close shuts the PE goroutines down; idempotent.
func (rt *peRuntime) close() {
	rt.closeOnce.Do(func() {
		rt.dispatch.Lock()
		defer rt.dispatch.Unlock()
		rt.closed = true
		rt.body = nil
		rt.start.await() // releases every PE with the nil (shutdown) body
		rt.done.await()
	})
}
