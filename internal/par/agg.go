package par

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file builds the exchange plan every barrier-synchronised kernel
// runs (the schedule transform lives in comm.Aggregate): PEs are grouped
// onto nodes, and all same-source-node traffic bound for one destination
// node travels as a single fused block. On this shared-memory emulation
// the fused send is a copy phase — the leader PE of each node gathers
// its members' outbound buffers into a preallocated per-node-pair
// staging area — and the destination PEs then accumulate their slices of
// the staging area in place, which is the scatter leg. A node of one PE
// has no members to gather from, so its buffers are read in place; with
// every PE its own node no leader gathers anything, and that plan is the
// flat exchange. Payload values are copied, never recombined, and every
// PE accumulates in ascending neighbor order under every plan, so all
// plans produce the same bits. Staging buffers and copy lists are built
// when a plan is installed; the steady-state kernel stays
// allocation-free.

// aggCopy is one gather copy: a leader moves a member PE's completed
// send buffer into its slot of an inter-node staging buffer.
type aggCopy struct {
	dst, src []float64
}

// exchangePlan is what exchange consults between the post and the
// receive. It is immutable after construction; the runtime swaps the
// whole pointer under the dispatch mutex, so PEs read a consistent plan
// for the duration of a kernel.
type exchangePlan struct {
	// crossings is the number of phase-barrier crossings inside one
	// exchange: 1 when no leader has anything to gather (the receive
	// follows the post directly), 2 when the gather runs between them.
	crossings int
	// gather[pe] is the copy list PE pe executes during the fused-send
	// phase; only leaders of nodes with several PEs have entries.
	gather [][]aggCopy
	// recv[pe][k] is the buffer PE pe accumulates from for neighbor
	// index k: the neighbor's own send buffer, or its slot in the
	// staging buffer when a leader gathered it.
	recv [][][]float64
	// fusedOut[pe] / stagedBytes[pe] are the per-kernel metric deltas a
	// leader contributes: inter-node blocks sent by its node, and bytes
	// it copied into staging.
	fusedOut    []int64
	stagedBytes []int64
}

// ownNode is the node map of the flat exchange: every PE its own node.
func ownNode(pe int32) int32 { return pe }

// SetAggregation installs the exchange plan that groups PEs onto nodes:
// nodeOf maps each PE to its node id (for example
// comm.ContiguousNodes(size)), and from it the runtime derives leaders,
// staging buffers, and copy lists. Nil puts every PE on its own node —
// the flat exchange a fresh Dist starts with, and what node size 1
// builds too. Every plan produces bit-identical results — values are
// copied unmodified and accumulated in the same order — and a plan in
// which some leader gathers costs one extra intra-kernel barrier and the
// staging copies. Construction allocates; the kernels that follow do
// not. Like InjectFaults, the swap is excluded from in-flight kernels by
// the dispatch mutex. SMVP, the resident CG and DistSim's step all run
// the installed plan.
func (d *Dist) SetAggregation(nodeOf func(pe int32) int32) error {
	if nodeOf == nil {
		nodeOf = ownNode
	}
	for pe := int32(0); pe < int32(d.P); pe++ {
		if n := nodeOf(pe); n < 0 {
			return fmt.Errorf("par: nodeOf(%d) = %d, want >= 0", pe, n)
		}
	}
	plan := d.rt.buildPlan(nodeOf)
	d.rt.dispatch.Lock()
	defer d.rt.dispatch.Unlock()
	if err := d.rt.usable(); err != nil {
		return err
	}
	d.rt.plan = plan
	return nil
}

// AggregationStats reports the installed plan's inter-node block count
// and staged (gather-copied) bytes per kernel, and whether any leader
// gathers at all (false for the flat exchange, whose blocks are the
// PE-to-PE messages themselves).
func (d *Dist) AggregationStats() (fusedBlocks, stagedBytes int64, enabled bool) {
	d.rt.dispatch.Lock()
	plan := d.rt.plan
	d.rt.dispatch.Unlock()
	for pe := range plan.fusedOut {
		fusedBlocks += plan.fusedOut[pe]
		stagedBytes += plan.stagedBytes[pe]
	}
	return fusedBlocks, stagedBytes, plan.crossings > 1
}

// buildPlan derives the exchange plan from a node mapping (ids >= 0)
// and the runtime's immutable exchange topology. It holds no lock: it
// reads only topology and the workspace send-buffer headers, both fixed
// at construction.
func (rt *peRuntime) buildPlan(nodeOf func(pe int32) int32) *exchangePlan {
	plan := &exchangePlan{
		crossings:   1,
		gather:      make([][]aggCopy, rt.p),
		recv:        make([][][]float64, rt.p),
		fusedOut:    make([]int64, rt.p),
		stagedBytes: make([]int64, rt.p),
	}
	// Per node: its lowest-numbered PE leads it; size counts its PEs.
	node := make([]int32, rt.p)
	leader := make(map[int32]int32)
	size := make(map[int32]int)
	for pe := rt.p - 1; pe >= 0; pe-- {
		node[pe] = nodeOf(int32(pe))
		leader[node[pe]] = int32(pe)
		size[node[pe]]++
	}

	// Staging volume per ordered node pair: every word a PE sends to a
	// neighbor on another node crosses exactly one pair, one block.
	type pair struct{ src, dst int32 }
	vol := make(map[pair]int)
	for pe := 0; pe < rt.p; pe++ {
		plan.recv[pe] = make([][]float64, len(rt.neighbors[pe]))
		for k, nbr := range rt.neighbors[pe] {
			if node[pe] != node[nbr] {
				vol[pair{node[pe], node[nbr]}] += len(rt.ws[pe].send[k])
			}
		}
	}
	staging := make(map[pair][]float64)
	for pr, words := range vol {
		plan.fusedOut[leader[pr.src]]++
		if size[pr.src] > 1 {
			staging[pr] = make([]float64, 0, words)
			plan.crossings = 2
		}
	}

	// Slot assignment: scan (srcPE ascending, neighbor index ascending)
	// so the layout is deterministic, appending each member buffer's
	// slot to its pair's staging buffer. The same scan emits the
	// source-node leader's gather copy and the destination PE's recv
	// slice, so the two sides agree on offsets by construction.
	for pe := 0; pe < rt.p; pe++ {
		for k, nbr := range rt.neighbors[pe] {
			send := rt.ws[pe].send[k]
			// rev is this PE's position in the neighbor's neighbor list.
			rev := indexOf(rt.neighbors[nbr], int32(pe))
			pr := pair{node[pe], node[nbr]}
			buf, staged := staging[pr]
			if !staged {
				// Same node, or a source node of one PE: the destination
				// reads the source's send buffer in place.
				plan.recv[nbr][rev] = send
				continue
			}
			slot := buf[len(buf) : len(buf)+len(send)]
			staging[pr] = buf[:len(buf)+len(send)]
			lead := leader[pr.src]
			plan.gather[lead] = append(plan.gather[lead], aggCopy{dst: slot, src: send})
			plan.stagedBytes[lead] += 8 * int64(len(slot))
			plan.recv[nbr][rev] = slot
		}
	}
	return plan
}

// gatherStaged is the fused-send phase exchange runs between its two
// crossings when the plan has any: the node leaders execute their gather
// copy lists, moving every member's completed send buffer into the
// inter-node staging areas. Other PEs have empty lists and just cross
// the barriers. Timed into Comm — these copies are the price of the
// block reduction.
func (rt *peRuntime) gatherStaged(pe int, plan *exchangePlan) {
	sp := obs.StartSpanPE("exchange", "par.smvp.gather", pe)
	start := time.Now()
	for _, op := range plan.gather[pe] {
		copy(op.dst, op.src)
	}
	rt.tm.Comm[pe] += time.Since(start)
	rt.met.aggFused.Add(plan.fusedOut[pe])
	rt.met.aggStagedBytes.Add(plan.stagedBytes[pe])
	sp.End()
}
