// Package par executes the parallel SMVP for real, on goroutine "PEs",
// following exactly the structure the paper models: a computation phase
// (each PE multiplies its local stiffness matrix by its local vector)
// separated by barriers from a communication phase (PEs sharing mesh
// nodes exchange and sum their partial nodal results). It provides the
// ground truth against which the closed-form model and the discrete
// simulator are validated, and measures the achieved per-flop time T_f
// on the host.
package par

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Dist is a distributed SMVP operator: per-PE local stiffness matrices
// assembled from each subdomain's own elements (so the global K is the
// sum of the scattered locals) and held in symmetric-upper storage, plus
// the shared-node exchange lists.
type Dist struct {
	P           int
	GlobalNodes int
	// Nodes[i] lists the global ids of the nodes resident on PE i,
	// sorted ascending. Local index l on PE i refers to Nodes[i][l].
	Nodes [][]int32
	// K[i] is PE i's local stiffness in local numbering, holding only
	// the contributions of PE i's own elements: its diagonal and upper
	// blocks, the one operator every kernel of the Dist streams. It may
	// be shared with other Dists (see Operators) and is never written.
	K []*sparse.SymBCSR
	// Neighbors[i] lists the PEs that share at least one node with i.
	Neighbors [][]int32
	// Shared[i][k] lists the local indices (into Nodes[i]) of the nodes
	// PE i shares with Neighbors[i][k], ordered by global id — the same
	// order both endpoints use, so exchanged buffers line up.
	Shared [][][]int32
	// Owner[v] is the PE responsible for writing node v's result back
	// to a global vector (the lowest-numbered PE of its residency set).
	Owner []int32
	// Boundary[i] lists, sorted, the local indices of PE i's shared
	// nodes: the rows whose partial sums the exchange completes.
	Boundary [][]int32

	// rt is the persistent-PE runtime: the long-lived goroutine PEs,
	// their preallocated workspaces, and the operator's telemetry
	// handles (resolved once so the SMVP hot path performs only atomic
	// adds, which no-op while obs is disabled). See runtime.go.
	rt *peRuntime
}

// distMetrics are the telemetry handles of one distributed operator.
// ExchBytes follows the partition profile's C accounting: bytes both
// sent and received by the PE, i.e. 8·C[i] per SMVP invocation.
type distMetrics struct {
	smvps     *obs.Counter
	exchMsgs  *obs.Counter
	msgBytes  *obs.Histogram
	exchBytes []*obs.Counter
	// Aggregated-exchange counters: fused inter-node blocks sent and
	// bytes gather-copied into staging (zero while no leader gathers).
	aggFused       *obs.Counter
	aggStagedBytes *obs.Counter
	// How waiters left the PEs' phase barrier: released while spinning,
	// or parked. One per waiter per crossing; see barrier.await.
	barrierSpun   *obs.Counter
	barrierParked *obs.Counter
	// Per-PE phase accumulators and merged duration histograms: the
	// substrate obs/analyze reads for λ, stragglers, and Eq.(2) drift.
	// One observation per PE per kernel invocation, in nanoseconds.
	phaseCompute   *obs.PEAccum
	phaseExchange  *obs.PEAccum
	phaseUpdate    *obs.PEAccum
	phaseComputeH  *obs.Histogram
	phaseExchangeH *obs.Histogram
	phaseUpdateH   *obs.Histogram
}

func newDistMetrics(p int) distMetrics {
	m := distMetrics{
		smvps:          obs.GetCounter("par.smvp.calls"),
		exchMsgs:       obs.GetCounter("par.exchange.msgs"),
		msgBytes:       obs.GetHistogram("par.exchange.msg_bytes"),
		exchBytes:      make([]*obs.Counter, p),
		aggFused:       obs.GetCounter("par.exchange.agg.fused_blocks"),
		aggStagedBytes: obs.GetCounter("par.exchange.agg.staged_bytes"),
		barrierSpun:    obs.GetCounter("par.barrier.spun"),
		barrierParked:  obs.GetCounter("par.barrier.parked"),
		phaseCompute:   obs.GetPEAccum("par.phase.compute.ns", p),
		phaseExchange:  obs.GetPEAccum("par.phase.exchange.ns", p),
		phaseUpdate:    obs.GetPEAccum("par.phase.update.ns", p),
		phaseComputeH:  obs.GetHistogram("par.phase.compute.hist_ns"),
		phaseExchangeH: obs.GetHistogram("par.phase.exchange.hist_ns"),
		phaseUpdateH:   obs.GetHistogram("par.phase.update.hist_ns"),
	}
	for i := 0; i < p; i++ {
		m.exchBytes[i] = obs.GetCounter(fmt.Sprintf("par.exchange.bytes.pe%d", i))
	}
	return m
}

// Phase observation helpers: each records one PE's phase duration into
// the per-PE accumulator (for λ/straggler/drift analysis), the merged
// histogram (for percentiles), and the flight recorder ring (for
// post-mortems). All three sinks are allocation-free, so these run on
// the kernel hot path with TestSMVPZeroAlloc still at 0 allocs/op.

func (m *distMetrics) observeCompute(pe int, iter int64, d time.Duration) {
	m.phaseCompute.Observe(pe, int64(d))
	m.phaseComputeH.Observe(int64(d))
	obs.RecordFlight(obs.FlightSpan, "par.phase.compute", pe, iter, d)
}

func (m *distMetrics) observeExchange(pe int, iter int64, d time.Duration) {
	m.phaseExchange.Observe(pe, int64(d))
	m.phaseExchangeH.Observe(int64(d))
	obs.RecordFlight(obs.FlightSpan, "par.phase.exchange", pe, iter, d)
}

func (m *distMetrics) observeUpdate(pe int, iter int64, d time.Duration) {
	m.phaseUpdate.Observe(pe, int64(d))
	m.phaseUpdateH.Observe(int64(d))
	obs.RecordFlight(obs.FlightSpan, "par.phase.update", pe, iter, d)
}

// bytesPerSharedNode is the wire size of one shared node's partial sum:
// three float64 words.
const bytesPerSharedNode = 8 * partition.WordsPerNode

// Operators are the per-PE stiffness matrices of a Dist together with
// the partition they were assembled on and, per PE, the resident nodes
// and boundary rows they are numbered by: what a later Dist on the same
// mesh and material shares or copies instead of integrating. K[i]
// depends only on the mesh, the material and PE i's elements, and
// nothing writes it once it is folded — not a kernel, not an injected
// fault, not Close — so a shared operator is the same value a fresh
// assembly would build, and so is a copied row.
type Operators struct {
	Part     *partition.Partition
	K        []*sparse.SymBCSR
	Nodes    [][]int32
	Boundary [][]int32
}

// Operators returns d's operator set; pt is the partition d was built on.
func (d *Dist) Operators(pt *partition.Partition) Operators {
	return Operators{Part: pt, K: d.K, Nodes: d.Nodes, Boundary: d.Boundary}
}

// The construction counters: per-PE operators taken whole from an
// existing set, and elements whose stiffness a construction integrated.
var (
	opsShared       = obs.GetCounter("par.dist.ops_shared")
	elemsIntegrated = obs.GetCounter("par.dist.elems_integrated")
)

// NewDist builds the distributed operator from a mesh, a material
// model, and a partition with its analysis profile, assembling every
// PE's stiffness.
func NewDist(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, pr *partition.Profile) (*Dist, error) {
	return NewDistSharing(m, mat, pt, pr, Operators{})
}

// NewDistSharing builds the distributed operator like NewDist, taking
// what it can from src, which must have been built on m and mat. When pt
// is the very partition src was built on, every PE's stiffness is src's
// and nothing is integrated. On any other partition a node resident on
// one PE in both partitions has all its elements on that PE in both, so
// its row of the new K[i] is its row of the old operator, the same
// element blocks summed in the same ascending order: that row is copied,
// its columns renumbered, and only the PE's elements touching some other
// row are integrated. A PE with no row to copy is assembled whole, as
// NewDist assembles it. The exchange lists, the PE runtime and its
// workspaces are always fresh.
func NewDistSharing(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, pr *partition.Profile, src Operators) (*Dist, error) {
	if pr.P != pt.P {
		return nil, fmt.Errorf("par: profile has %d PEs, partition %d", pr.P, pt.P)
	}
	p := pt.P
	d := &Dist{
		P:           p,
		GlobalNodes: m.NumNodes(),
		Nodes:       pr.NodesOnPE,
		K:           make([]*sparse.SymBCSR, p),
		Neighbors:   make([][]int32, p),
		Shared:      make([][][]int32, p),
		Owner:       make([]int32, m.NumNodes()),
	}
	for v, pes := range pr.NodePEs {
		if len(pes) == 0 {
			return nil, fmt.Errorf("par: node %d resides nowhere", v)
		}
		d.Owner[v] = pes[0]
	}

	// The same partition gives every PE the same elements, so the same K.
	if src.Part == pt && len(src.K) == p {
		copy(d.K, src.K)
		opsShared.Add(int64(p))
	} else if err := d.assemble(m, mat, pt, pr, src); err != nil {
		return nil, err
	}
	g2l := make([]int32, d.GlobalNodes)

	// Exchange lists from the residency sets: for every node on 2+ PEs,
	// record it under each unordered PE pair. Node ids ascend during the
	// scan, so each per-pair list is automatically in global-id order.
	type pair struct{ a, b int32 }
	sharedByPair := make(map[pair][]int32)
	for v, pes := range pr.NodePEs {
		for x := 0; x < len(pes); x++ {
			for y := x + 1; y < len(pes); y++ {
				pr := pair{pes[x], pes[y]}
				sharedByPair[pr] = append(sharedByPair[pr], int32(v))
			}
		}
	}
	nbrSet := make([]map[int32][]int32, p) // neighbor -> shared globals
	for i := range nbrSet {
		nbrSet[i] = make(map[int32][]int32)
	}
	for pr, nodes := range sharedByPair {
		nbrSet[pr.a][pr.b] = nodes
		nbrSet[pr.b][pr.a] = nodes
	}
	for i := 0; i < p; i++ {
		for nbr := range nbrSet[i] {
			d.Neighbors[i] = append(d.Neighbors[i], nbr)
		}
		slices.Sort(d.Neighbors[i])
		d.Shared[i] = make([][]int32, len(d.Neighbors[i]))
		for l, g := range d.Nodes[i] {
			g2l[g] = int32(l)
		}
		for k, nbr := range d.Neighbors[i] {
			globals := nbrSet[i][nbr]
			locals := make([]int32, len(globals))
			for s, g := range globals {
				locals[s] = g2l[g]
			}
			d.Shared[i][k] = locals
		}
	}

	// Boundary rows: the local nodes that appear in some exchange list.
	d.Boundary = make([][]int32, p)
	for i := 0; i < p; i++ {
		isBoundary := make([]bool, len(d.Nodes[i]))
		for _, locals := range d.Shared[i] {
			for _, l := range locals {
				isBoundary[l] = true
			}
		}
		for l := range d.Nodes[i] {
			if isBoundary[l] {
				d.Boundary[i] = append(d.Boundary[i], int32(l))
			}
		}
	}
	d.rt = newPERuntime(d)
	// Safety net for callers that drop a Dist without Close: the PE
	// goroutines reference only d.rt, never d itself, so d can become
	// unreachable and the finalizer then parks the runtime. Explicit
	// Close remains the deterministic path.
	runtime.SetFinalizer(d, (*Dist).Close)
	return d, nil
}

// assemble builds every PE's K on pt, copying from src the rows
// NewDistSharing describes. The PEs' matrices are independent, so
// workers pull PE indices from a counter and build each K[i] start to
// finish. One worker adds one PE's element blocks in ascending element
// order, so every sum has the order a serial loop over PEs gives it and
// the result does not depend on the worker count. An assembled matrix
// lives only until the worker has folded it.
func (d *Dist) assemble(m *mesh.Mesh, mat *material.Model, pt *partition.Partition, pr *partition.Profile, src Operators) error {
	// Elements per PE, ascending within each PE.
	elems := make([][]int32, d.P)
	for i, n := range pt.Sizes() {
		elems[i] = make([]int32, 0, n)
	}
	for e, pe := range pt.ElemPE {
		elems[pe] = append(elems[pe], int32(e))
	}
	home := interiorRows(d.GlobalNodes, src)

	workers := max(1, min(d.P, runtime.GOMAXPROCS(0)))
	errs := make([]error, d.P)
	var next atomic.Int32
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b peBuilder
			for i := int(next.Add(1)) - 1; i < d.P; i = int(next.Add(1)) - 1 {
				var n int
				d.K[i], n, errs[i] = b.build(m, mat, d.Nodes[i], elems[i], pr, src, home)
				elemsIntegrated.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	// The lowest PE's error, which is its first degenerate element: what
	// the serial loop reported, whichever worker met it.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// interiorRows maps every node interior to src's partition — resident
// on one PE, so every element touching it lies on that PE — to that PE
// and its local row there; every other node maps to Src −1. It is nil
// when src carries no rows to copy.
func interiorRows(n int, src Operators) []sparse.RowRef {
	if len(src.K) == 0 || len(src.Nodes) != len(src.K) || len(src.Boundary) != len(src.K) {
		return nil
	}
	home := make([]sparse.RowRef, n)
	for g := range home {
		home[g].Src = -1
	}
	for r, nodes := range src.Nodes {
		for l, g := range nodes {
			home[g] = sparse.RowRef{Src: int32(r), Row: int32(l)}
		}
	}
	for r, rows := range src.Boundary {
		for _, l := range rows {
			home[src.Nodes[r][l]].Src = -1
		}
	}
	return home
}

// peBuilder is one construction worker's memory, reused PE to PE.
type peBuilder struct {
	asm fem.AssemblyScratch
	// g2l maps a global node to its local index on the PE under way and
	// every other node to −1.
	g2l []int32
}

// build returns one PE's folded stiffness and the number of elements it
// integrated. A row is copied from home when its node is interior to
// the PE here and to one PE of src; the PE's elements touching any
// other row are integrated, and the two row sets merged.
func (b *peBuilder) build(m *mesh.Mesh, mat *material.Model, nodes, elems []int32, pr *partition.Profile, src Operators, home []sparse.RowRef) (*sparse.SymBCSR, int, error) {
	var rows []sparse.RowRef
	var srcPE []int32 // the source PE of each merge source
	if home != nil {
		rows = make([]sparse.RowRef, len(nodes))
		for l, g := range nodes {
			h := home[g]
			if h.Src < 0 || len(pr.NodePEs[g]) != 1 {
				rows[l].Src = -1
				continue
			}
			k := slices.Index(srcPE, h.Src)
			if k < 0 {
				k = len(srcPE)
				srcPE = append(srcPE, h.Src)
			}
			rows[l] = sparse.RowRef{Src: int32(k), Row: h.Row}
		}
	}
	if len(srcPE) == 0 {
		full, err := fem.AssembleLocal(m, mat, nodes, elems, &b.asm)
		if err != nil {
			return nil, 0, fmt.Errorf("par: %w", err)
		}
		k, err := sparse.NewSymFromBCSR(full)
		return k, len(elems), err
	}

	if b.g2l == nil {
		b.g2l = make([]int32, len(home))
		for g := range b.g2l {
			b.g2l[g] = -1
		}
	}
	for l, g := range nodes {
		b.g2l[g] = int32(l)
	}
	srcs := make([]sparse.SymSource, len(srcPE))
	for k, r := range srcPE {
		cols := make([]int32, len(src.Nodes[r]))
		for c, g := range src.Nodes[r] {
			cols[c] = b.g2l[g]
		}
		srcs[k] = sparse.SymSource{M: src.K[r], Cols: cols}
	}
	var touched []int32
	for _, e := range elems {
		for _, v := range m.Tets[e] {
			if rows[b.g2l[v]].Src < 0 {
				touched = append(touched, e)
				break
			}
		}
	}
	for _, g := range nodes {
		b.g2l[g] = -1
	}
	a, err := fem.AssembleLocal(m, mat, nodes, touched, &b.asm)
	if err != nil {
		return nil, 0, fmt.Errorf("par: %w", err)
	}
	k, err := sparse.NewSymMerged(a, srcs, rows)
	return k, len(touched), err
}

// Close shuts down the persistent PE goroutines. It is idempotent and
// safe to call concurrently with kernels (in-flight calls finish;
// subsequent calls return an error). A Dist that is never closed holds
// P parked goroutines and its workspaces until it is garbage collected.
func (d *Dist) Close() { d.rt.close() }

// InjectFaults arms the Dist's exchange-boundary fault injector with
// plan, or disarms it when plan is nil. The returned Injector reports
// injected-fault counts; it is nil when disarming. Arming is excluded
// from in-flight kernels by the dispatch mutex, and a disarmed Dist
// pays only a nil check per hook site — the steady-state kernels stay
// allocation- and spawn-free (see docs/RELIABILITY.md for the fault
// model and docs/PERFORMANCE.md for the hot-path rules).
//
// Plan iterations count kernel dispatches since arming: every SMVP or
// DistSim time step advances the count by one. A plan whose panic event
// fires poisons the Dist permanently: the faulted kernel returns an
// error wrapping ErrPoisoned and every later kernel fails fast with the
// same error.
func (d *Dist) InjectFaults(plan *fault.Plan) (*fault.Injector, error) {
	if plan == nil {
		if err := d.rt.arm(nil); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if err := plan.Validate(d.P); err != nil {
		return nil, err
	}
	in := fault.NewInjector(plan)
	if err := d.rt.arm(in); err != nil {
		return nil, err
	}
	return in, nil
}

// Timing reports per-PE phase durations of one distributed SMVP.
type Timing struct {
	Compute []time.Duration
	Comm    []time.Duration
}

// MaxCompute returns the longest computation phase across PEs.
func (t *Timing) MaxCompute() time.Duration { return maxDur(t.Compute) }

// MaxComm returns the longest communication phase across PEs.
func (t *Timing) MaxComm() time.Duration { return maxDur(t.Comm) }

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// SMVP computes y = K·x with the distributed operator: scatter x,
// parallel local SMVPs, barrier, partial-sum exchange, gather. x and y
// are global vectors of length 3·GlobalNodes.
//
// The kernel runs on the Dist's persistent PEs against preallocated
// workspaces: in steady state it allocates nothing and spawns no
// goroutines. The returned Timing (per-PE phase durations of this
// invocation) is owned by the Dist and overwritten by the next kernel
// call — copy it if it must survive.
func (d *Dist) SMVP(y, x []float64) (*Timing, error) {
	if len(x) != 3*d.GlobalNodes || len(y) != 3*d.GlobalNodes {
		return nil, fmt.Errorf("par: SMVP needs vectors of length %d, got %d/%d",
			3*d.GlobalNodes, len(x), len(y))
	}
	d.rt.met.smvps.Add(1)
	return d.rt.runKernel(d.rt.phasedBody, y, x)
}

// phasedPE is the per-PE body of the phased SMVP: scatter, local
// multiply, the barrier-synchronised exchange, gather. Scatter and
// gather are untimed, as before: distribution of x is part of the
// surrounding application, which keeps x resident.
func (rt *peRuntime) phasedPE(pe int) {
	ws := &rt.ws[pe]
	nodes := rt.nodes[pe]
	x, y := rt.x, rt.y
	for l, g := range nodes {
		copy(ws.x[3*l:3*l+3], x[3*g:3*g+3])
	}
	rt.compute(pe, ws.y, ws.x)
	if !rt.exchange(pe, ws.y) {
		return
	}
	// Gather phase: owners write their nodes' results.
	for l, g := range nodes {
		if rt.owner[g] != int32(pe) {
			continue
		}
		copy(y[3*g:3*g+3], ws.y[3*l:3*l+3])
	}
}

// compute is one PE's computation phase: y = K_pe·x on its local
// vectors, timed into Timing.Compute and the phase telemetry, followed
// by the injector's PE-local hook — the point where a dead PE is most
// dangerous, with every peer headed for the phase synchronization. The
// operator has one kernel, which returns xᵀy from the same sweep; only
// a CG iteration has a use for it.
func (rt *peRuntime) compute(pe int, y, x []float64) float64 {
	iter := rt.ws[pe].iter
	sp := obs.StartSpanPE("compute", "par.smvp.compute", pe)
	start := time.Now()
	d := rt.k[pe].MulVecDot(y, x)
	rt.tm.Compute[pe] = time.Since(start)
	rt.met.observeCompute(pe, iter, rt.tm.Compute[pe])
	sp.End()
	if fi := rt.fi; fi != nil {
		fi.AfterCompute(pe, iter)
	}
	return d
}

// exchange is one PE's communication phase, the only way partial sums
// cross PEs in a barrier-synchronised kernel (the SMVP, the integrator
// step, a CG iteration): y holds the PE's partial K_pe·x on entry and
// the complete sums of every local node on return. The PE posts its
// shared nodes' partials into its own send buffers, crosses the phase
// barrier, and accumulates the buffers the installed plan's recv names:
// its neighbors' send buffers in place under the flat plan; under a plan
// whose leaders gather, the posted buffers first move into the
// inter-node staging areas between two crossings and the remote partials
// are read from there — same values, same order. The barrier wait itself
// is not attributed to Comm.
//
// Every replica of a shared node sums the partials in the same order,
// ascending PE id, so all replicas hold the same bits: the neighbors
// below this PE first, then its own partial, then the neighbors above.
// The owner is the lowest PE, for which that is own-first — the order
// the gathered SMVP result has always had.
//
// A false return means a barrier was poisoned: a peer died mid-kernel
// and its posts (or a leader's staging copies) may still be in flight,
// so the caller must bail out rather than race on them.
func (rt *peRuntime) exchange(pe int, y []float64) bool {
	ws := &rt.ws[pe]
	fi, iter, plan := rt.fi, ws.iter, rt.plan
	nbrs := rt.neighbors[pe]

	sp := obs.StartSpanPE("exchange", "par.smvp.post", pe)
	start := time.Now()
	var moved int64
	for k, locals := range rt.shared[pe] {
		buf := ws.send[k]
		for s, l := range locals {
			copy(buf[3*s:3*s+3], y[3*l:3*l+3])
		}
		if fi != nil {
			fi.CorruptSend(pe, int(nbrs[k]), iter, buf)
		}
		n := bytesPerSharedNode * int64(len(locals))
		moved += n
		rt.met.msgBytes.Observe(n)
	}
	// Set the own partial of lower-owned nodes aside and start their sums
	// from zero, so the lower neighbors' partials land first.
	for i, l := range ws.replica {
		copy(ws.self[3*i:3*i+3], y[3*l:3*l+3])
		y[3*l], y[3*l+1], y[3*l+2] = 0, 0, 0
	}
	rt.tm.Comm[pe] = time.Since(start)
	rt.met.exchMsgs.Add(int64(len(nbrs)))
	sp.End()

	if !rt.bar.await() {
		return false
	}
	if plan.crossings > 1 {
		rt.gatherStaged(pe, plan)
		if !rt.bar.await() {
			return false
		}
	}

	sp = obs.StartSpanPE("exchange", "par.smvp.recv", pe)
	start = time.Now()
	moved += rt.receive(pe, y, 0, ws.lower)
	for i, l := range ws.replica {
		y[3*l] += ws.self[3*i]
		y[3*l+1] += ws.self[3*i+1]
		y[3*l+2] += ws.self[3*i+2]
	}
	moved += rt.receive(pe, y, ws.lower, len(nbrs))
	rt.tm.Comm[pe] += time.Since(start)
	rt.met.exchBytes[pe].Add(moved)
	rt.met.observeExchange(pe, iter, rt.tm.Comm[pe])
	sp.End()
	return true
}

// receive accumulates into y the partials posted for PE pe by its
// neighbors lo..hi-1, read where the installed plan left them, applying
// the injector's delivery faults, and returns the bytes received.
func (rt *peRuntime) receive(pe int, y []float64, lo, hi int) (recvd int64) {
	fi, recv := rt.fi, rt.plan.recv[pe]
	for k := lo; k < hi; k++ {
		buf := recv[k]
		locals := rt.shared[pe][k]
		reps := 1
		if fi != nil {
			reps = fi.Deliver(int(rt.neighbors[pe][k]), pe, rt.ws[pe].iter)
		}
		for ; reps > 0; reps-- {
			for s, l := range locals {
				y[3*l] += buf[3*s]
				y[3*l+1] += buf[3*s+1]
				y[3*l+2] += buf[3*s+2]
			}
			recvd += bytesPerSharedNode * int64(len(locals))
		}
	}
	return recvd
}

// FlopsPerPE returns the flop count of each PE's local SMVP (2 flops
// per scalar of the full matrix the symmetric storage stands for). Note
// this is the element-assembled operator, so it can be slightly below
// the paper's residency-based F when a shared node pair's connecting
// elements all live on another PE.
func (d *Dist) FlopsPerPE() []int64 {
	out := make([]int64, d.P)
	for i, k := range d.K {
		out[i] = int64(2 * k.EquivalentNNZ())
	}
	return out
}

// indexOf returns the position of v in the sorted slice s, or -1.
func indexOf(s []int32, v int32) int {
	lo := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if lo < len(s) && s[lo] == v {
		return lo
	}
	return -1
}

// Operator adapts the distributed SMVP to the solver.Operator
// interface, so conjugate gradients (package solver) can run on the
// goroutine-PE runtime: every CG iteration then exercises exactly the
// computation+exchange structure the paper models, plus the dot
// products an implicit method adds.
type Operator struct {
	D *Dist
	// Shift, when positive, adds Shift·diag(mass) like solver.Shifted,
	// making the operator positive definite for CG.
	Shift float64
	// MassNode is required when Shift is positive.
	MassNode []float64
}

// Apply implements solver.Operator. A kernel failure — a dimension
// mismatch, a closed Dist, or a Dist poisoned by a PE fault — is
// propagated as an error, and solver.CG aborts the solve with it.
func (o Operator) Apply(y, x []float64) error {
	if err := o.checkMass(); err != nil {
		return err
	}
	if _, err := o.D.SMVP(y, x); err != nil {
		return err
	}
	if o.Shift > 0 {
		solver.AddShift(y, x, o.MassNode, o.Shift)
	}
	return nil
}

// Dim implements solver.Operator.
func (o Operator) Dim() int { return 3 * o.D.GlobalNodes }

// checkMass is the one mass-vector rule of every door that shifts: one
// entry per node whenever Shift is positive.
func (o Operator) checkMass() error {
	if o.Shift > 0 && len(o.MassNode) != o.D.GlobalNodes {
		return fmt.Errorf("par: mass vector has %d entries, want %d", len(o.MassNode), o.D.GlobalNodes)
	}
	return nil
}
