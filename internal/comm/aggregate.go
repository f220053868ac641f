package comm

// This file implements node-aware two-level message aggregation for the
// SMVP exchange. The paper's hard conclusion is that block latency, not
// bandwidth, limits the exchange (Eq. 2, Figures 8-11): every block a
// PE sends or receives costs T_l, so the cheapest exchange is the one
// with the fewest blocks. On clustered machines — several PEs per node,
// expensive inter-node blocks, cheap intra-node copies — the modern
// answer (Bienz et al., "Improving Performance Models for Irregular
// Point-to-Point Communication") is hierarchical aggregation: all
// messages from PEs on node A to PEs on node B travel as ONE fused
// inter-node block between the two node leaders, at the price of extra
// intra-node copy legs that gather the payload into the leader's
// staging buffer and scatter it back out on the far side. Aggregate
// performs that transform on a flat schedule; the four resulting legs
// are themselves ordinary Schedules, so every simulator and model in
// the repository can replay them.

import (
	"fmt"
	"sort"
)

// Aggregated is a two-level exchange plan derived from a flat schedule:
// the same payload, reorganized into four legs that execute in phase
// order Gather → Internode → Scatter, with Local free to proceed
// alongside the gather (it never leaves a node).
//
// Word accounting: Local plus Internode carry exactly the flat
// schedule's payload (word conservation); Gather and Scatter are the
// extra copied words the aggregation spends to buy fewer inter-node
// blocks. All four legs have deterministic ordering: every Out list is
// sorted by destination (ties broken by the construction scan order,
// which is itself deterministic).
type Aggregated struct {
	P int
	// NumNodes is 1 + the largest node id NodeOf maps to.
	NumNodes int
	// NodeOf[pe] is the node housing the PE.
	NodeOf []int32
	// Leader[n] is the lowest-numbered PE on node n, or -1 for a node
	// with no PEs.
	Leader []int32

	// Local holds the same-node messages of the flat schedule,
	// unchanged: they never cross a node boundary, so aggregation
	// leaves them alone.
	Local *Schedule
	// Gather holds the intra-node legs of the send side: each
	// non-leader PE forwards the words it owes each remote node to its
	// own node leader, one block per (PE, destination node) pair.
	// Leaders contribute their payload in place — no gather leg.
	Gather *Schedule
	// Internode holds the fused blocks: one leader-to-leader block per
	// ordered node pair with traffic, carrying the pair's entire
	// payload.
	Internode *Schedule
	// Scatter holds the intra-node legs of the receive side: the
	// destination node's leader forwards each non-leader PE its share
	// of every fused block, one block per (destination PE, source node)
	// pair. Payload addressed to the leader itself needs no scatter leg.
	Scatter *Schedule
}

// ContiguousNodes maps PEs onto nodes of the given size in id order
// (PEs 0..size-1 on node 0, and so on) — the layout of a batch
// scheduler placing ranks densely on a cluster. size must be positive;
// Aggregate rejects the mapping otherwise.
func ContiguousNodes(size int) func(pe int32) int32 {
	return func(pe int32) int32 {
		if size <= 0 {
			return -1 // rejected by Aggregate's validation
		}
		return pe / int32(size)
	}
}

// Aggregate transforms a flat schedule into the two-level plan induced
// by the PE→node mapping. nodeOf must map every PE of s to a node id in
// [0, P) (dense ids; there can be no more nodes than PEs). The input
// schedule must be valid and is not modified.
func Aggregate(s *Schedule, nodeOf func(pe int32) int32) (*Aggregated, error) {
	if s == nil {
		return nil, fmt.Errorf("comm: Aggregate needs a schedule")
	}
	if nodeOf == nil {
		return nil, fmt.Errorf("comm: Aggregate needs a node mapping")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("comm: Aggregate on invalid schedule: %w", err)
	}
	a := &Aggregated{
		P:      s.P,
		NodeOf: make([]int32, s.P),
	}
	for pe := 0; pe < s.P; pe++ {
		n := nodeOf(int32(pe))
		if n < 0 || int(n) >= s.P {
			return nil, fmt.Errorf("comm: PE %d mapped to node %d, want [0,%d)", pe, n, s.P)
		}
		a.NodeOf[pe] = n
		if int(n)+1 > a.NumNodes {
			a.NumNodes = int(n) + 1
		}
	}
	a.Leader = make([]int32, a.NumNodes)
	for n := range a.Leader {
		a.Leader[n] = -1
	}
	for pe := 0; pe < s.P; pe++ { // ascending: leader = lowest PE on the node
		if n := a.NodeOf[pe]; a.Leader[n] == -1 {
			a.Leader[n] = int32(pe)
		}
	}

	a.Local = &Schedule{P: s.P, Out: make([][]Message, s.P)}
	a.Gather = &Schedule{P: s.P, Out: make([][]Message, s.P)}
	a.Internode = &Schedule{P: s.P, Out: make([][]Message, s.P)}
	a.Scatter = &Schedule{P: s.P, Out: make([][]Message, s.P)}

	// Volume accumulators, keyed so the emission loops below can sort
	// deterministically: fused inter-node payload per ordered node
	// pair, gather words per (sending PE, destination node), scatter
	// words per (destination PE, source node).
	type key struct{ a, b int32 }
	interVol := make(map[key]int64)
	gatherVol := make(map[key]int64)
	scatterVol := make(map[key]int64)
	for i := range s.Out {
		for _, m := range s.Out[i] {
			na, nb := a.NodeOf[m.From], a.NodeOf[m.To]
			if na == nb {
				a.Local.Out[i] = append(a.Local.Out[i], m)
				continue
			}
			interVol[key{na, nb}] += m.Words
			if m.From != a.Leader[na] {
				gatherVol[key{m.From, nb}] += m.Words
			}
			if m.To != a.Leader[nb] {
				scatterVol[key{m.To, na}] += m.Words
			}
		}
	}

	emit := func(vol map[key]int64, place func(k key, w int64)) {
		keys := make([]key, 0, len(vol))
		for k := range vol {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(x, y int) bool {
			if keys[x].a != keys[y].a {
				return keys[x].a < keys[y].a
			}
			return keys[x].b < keys[y].b
		})
		for _, k := range keys {
			place(k, vol[k])
		}
	}
	// Gather: (pe, destNode) ascending ⇒ per-PE lists ordered by
	// destination node; every block goes to the PE's own leader.
	emit(gatherVol, func(k key, w int64) {
		ldr := a.Leader[a.NodeOf[k.a]]
		a.Gather.Out[k.a] = append(a.Gather.Out[k.a], Message{From: k.a, To: ldr, Words: w})
	})
	// Internode: (srcNode, dstNode) ascending ⇒ each leader's list
	// ordered by destination leader (leader order follows node order
	// only coincidentally, so re-sort per sender below).
	emit(interVol, func(k key, w int64) {
		from, to := a.Leader[k.a], a.Leader[k.b]
		a.Internode.Out[from] = append(a.Internode.Out[from], Message{From: from, To: to, Words: w})
	})
	// Scatter: (destPE, srcNode) ascending ⇒ each leader's list ordered
	// by destination PE, ties by source node.
	emit(scatterVol, func(k key, w int64) {
		ldr := a.Leader[a.NodeOf[k.a]]
		a.Scatter.Out[ldr] = append(a.Scatter.Out[ldr], Message{From: ldr, To: k.a, Words: w})
	})
	for pe := 0; pe < s.P; pe++ {
		out := a.Internode.Out[pe]
		sort.SliceStable(out, func(x, y int) bool { return out[x].To < out[y].To })
	}
	return a, nil
}

// PayloadWords returns the end-to-end payload of the plan: the words of
// the Local and Internode legs, which must equal the flat schedule's
// total directed volume.
func (a *Aggregated) PayloadWords() int64 {
	return totalWords(a.Local) + totalWords(a.Internode)
}

// CopiedWords returns the extra words the aggregation copies through
// leader staging buffers: the Gather plus Scatter leg volumes. This is
// the bandwidth price paid for the reduction in inter-node blocks.
func (a *Aggregated) CopiedWords() int64 {
	return totalWords(a.Gather) + totalWords(a.Scatter)
}

// InterCB returns the per-PE inter-node word and block counts
// (sent+received), the vectors the β error bound needs under
// aggregation (model.BetaOf).
func (a *Aggregated) InterCB() (c, b []int64) {
	return a.Internode.WordsPerPE(), a.Internode.BlocksPerPE()
}

// InternodeByNode reprojects the fused leg onto node ids: a schedule
// with one "PE" per node, message (a→b) carrying the fused payload of
// node pair (a,b). This is what replays over a torus whose vertices are
// nodes rather than PEs (machine.Replay's fused leg).
func (a *Aggregated) InternodeByNode() *Schedule {
	s := &Schedule{P: a.NumNodes, Out: make([][]Message, a.NumNodes)}
	for pe := range a.Internode.Out {
		for _, m := range a.Internode.Out[pe] {
			na, nb := a.NodeOf[m.From], a.NodeOf[m.To]
			s.Out[na] = append(s.Out[na], Message{From: na, To: nb, Words: m.Words})
		}
	}
	for n := range s.Out {
		out := s.Out[n]
		sort.SliceStable(out, func(x, y int) bool { return out[x].To < out[y].To })
	}
	return s
}

// Check verifies the plan against the flat schedule it was derived
// from: leg validity, leader discipline, deterministic ordering, and
// exact word conservation (payload equality overall, per node pair on
// the fused leg, and per PE on the gather/scatter legs). Tests and the
// fuzz harness call it after every Aggregate.
func (a *Aggregated) Check(flat *Schedule) error {
	if flat == nil || flat.P != a.P {
		return fmt.Errorf("comm: Check against mismatched schedule")
	}
	for name, leg := range map[string]*Schedule{
		"local": a.Local, "gather": a.Gather, "internode": a.Internode, "scatter": a.Scatter,
	} {
		if err := leg.Validate(); err != nil {
			return fmt.Errorf("comm: %s leg invalid: %w", name, err)
		}
		for pe := range leg.Out {
			for i := 1; i < len(leg.Out[pe]); i++ {
				if leg.Out[pe][i].To < leg.Out[pe][i-1].To {
					return fmt.Errorf("comm: %s leg of PE %d not ordered by destination", name, pe)
				}
			}
		}
	}

	// Re-derive the flat traffic split and compare.
	type key struct{ a, b int32 }
	wantInter := make(map[key]int64)
	wantGatherPE := make([]int64, a.P)  // inter-node words sent by non-leader PEs
	wantScatterPE := make([]int64, a.P) // inter-node words received by non-leader PEs
	var wantLocal, flatTotal int64
	for i := range flat.Out {
		for _, m := range flat.Out[i] {
			flatTotal += m.Words
			na, nb := a.NodeOf[m.From], a.NodeOf[m.To]
			if na == nb {
				wantLocal += m.Words
				continue
			}
			wantInter[key{na, nb}] += m.Words
			if m.From != a.Leader[na] {
				wantGatherPE[m.From] += m.Words
			}
			if m.To != a.Leader[nb] {
				wantScatterPE[m.To] += m.Words
			}
		}
	}
	if got := a.PayloadWords(); got != flatTotal {
		return fmt.Errorf("comm: payload %d words, flat schedule has %d", got, flatTotal)
	}
	if got := totalWords(a.Local); got != wantLocal {
		return fmt.Errorf("comm: local leg carries %d words, want %d", got, wantLocal)
	}
	gotInter := make(map[key]int64)
	for pe := range a.Internode.Out {
		for _, m := range a.Internode.Out[pe] {
			na, nb := a.NodeOf[m.From], a.NodeOf[m.To]
			if m.From != a.Leader[na] || m.To != a.Leader[nb] {
				return fmt.Errorf("comm: fused block %d→%d not leader-to-leader", m.From, m.To)
			}
			k := key{na, nb}
			if _, dup := gotInter[k]; dup {
				return fmt.Errorf("comm: node pair (%d,%d) fused into more than one block", na, nb)
			}
			gotInter[k] = m.Words
		}
	}
	if len(gotInter) != len(wantInter) {
		return fmt.Errorf("comm: %d fused blocks, want %d", len(gotInter), len(wantInter))
	}
	for k, w := range wantInter {
		if gotInter[k] != w {
			return fmt.Errorf("comm: node pair (%d,%d) fused %d words, want %d", k.a, k.b, gotInter[k], w)
		}
	}
	for pe := range a.Gather.Out {
		var sent int64
		for _, m := range a.Gather.Out[pe] {
			if m.To != a.Leader[a.NodeOf[pe]] {
				return fmt.Errorf("comm: gather block of PE %d goes to %d, not its leader", pe, m.To)
			}
			sent += m.Words
		}
		if sent != wantGatherPE[pe] {
			return fmt.Errorf("comm: PE %d gathers %d words, want %d", pe, sent, wantGatherPE[pe])
		}
	}
	gotScatter := make([]int64, a.P)
	for pe := range a.Scatter.Out {
		for _, m := range a.Scatter.Out[pe] {
			if m.From != a.Leader[a.NodeOf[m.To]] {
				return fmt.Errorf("comm: scatter block to PE %d comes from %d, not its leader", m.To, m.From)
			}
			gotScatter[m.To] += m.Words
		}
	}
	for pe := range gotScatter {
		if gotScatter[pe] != wantScatterPE[pe] {
			return fmt.Errorf("comm: PE %d scattered %d words, want %d", pe, gotScatter[pe], wantScatterPE[pe])
		}
	}
	return nil
}

// Merge returns a schedule carrying both inputs' messages (same P),
// each per-PE list re-sorted by destination. machine.Replay uses it to
// run the legs that proceed together (Local alongside Gather) as one
// schedule.
func Merge(x, y *Schedule) (*Schedule, error) {
	if x.P != y.P {
		return nil, fmt.Errorf("comm: Merge of schedules with %d and %d PEs", x.P, y.P)
	}
	out := &Schedule{P: x.P, Out: make([][]Message, x.P)}
	for i := 0; i < x.P; i++ {
		out.Out[i] = append(out.Out[i], x.Out[i]...)
		out.Out[i] = append(out.Out[i], y.Out[i]...)
		msgs := out.Out[i]
		sort.SliceStable(msgs, func(a, b int) bool { return msgs[a].To < msgs[b].To })
	}
	return out, nil
}

func totalWords(s *Schedule) int64 {
	var w int64
	for _, msgs := range s.Out {
		for _, m := range msgs {
			w += m.Words
		}
	}
	return w
}
