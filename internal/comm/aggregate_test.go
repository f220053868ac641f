package comm

import (
	"math/rand"
	"slices"
	"testing"
)

// randMatrix builds a symmetric random message matrix on p PEs with the
// given traffic density, deterministic in seed. Symmetry matches the
// real exchange (every message has an equal reply), but nothing in
// Aggregate requires it — asymmetric cases ride through the fuzzer.
func randMatrix(rng *rand.Rand, p int, density float64, maxWords int64) [][]int64 {
	msg := make([][]int64, p)
	for i := range msg {
		msg[i] = make([]int64, p)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rng.Float64() < density {
				w := 1 + rng.Int63n(maxWords)
				msg[i][j] = w
				msg[j][i] = w
			}
		}
	}
	return msg
}

func mustSchedule(t *testing.T, msg [][]int64) *Schedule {
	t.Helper()
	s, err := FromMatrix(msg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAggregateSmall(t *testing.T) {
	// 4 PEs on 2 nodes of 2: PE0,1 on node 0; PE2,3 on node 1.
	msg := [][]int64{
		{0, 5, 7, 2}, // 0→1 local; 0→2, 0→3 inter
		{5, 0, 0, 3}, // 1→0 local; 1→3 inter
		{7, 0, 0, 4}, // 2→0 inter; 2→3 local
		{2, 3, 4, 0},
	}
	s := mustSchedule(t, msg)
	a, err := Aggregate(s, ContiguousNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(s); err != nil {
		t.Fatal(err)
	}
	if a.NumNodes != 2 || a.Leader[0] != 0 || a.Leader[1] != 2 {
		t.Fatalf("nodes/leaders = %d/%v", a.NumNodes, a.Leader)
	}
	// Aggregated payloads: node0→node1 = 2+3+7... careful: inter messages
	// from node 0 to node 1 are 0→2 (7), 0→3 (2), 1→3 (3) = 12 words,
	// and symmetrically 12 back.
	inter := a.Internode
	if got := inter.Out[0][0].Words; got != 12 {
		t.Errorf("fused 0→2 block = %d words, want 12", got)
	}
	if got, want := inter.TotalBlocks(), 2; got != want {
		t.Errorf("fused blocks = %d, want %d", got, want)
	}
	// Gather: PE1 owes node 1 exactly 3 words; PE0 is leader (no leg).
	if n := len(a.Gather.Out[0]); n != 0 {
		t.Errorf("leader PE0 has %d gather legs", n)
	}
	if w := a.Gather.Out[1][0].Words; w != 3 {
		t.Errorf("PE1 gather leg = %d words, want 3", w)
	}
	// Scatter on node 1: PE3 receives 2+3=5 words via its leader PE2.
	var toPE3 int64
	for _, m := range a.Scatter.Out[2] {
		if m.To == 3 {
			toPE3 += m.Words
		}
	}
	if toPE3 != 5 {
		t.Errorf("PE3 scattered %d words, want 5", toPE3)
	}
	// Block economics: the flat schedule's 6 inter-node blocks fuse
	// into 2 (one per ordered node pair).
	if _, b := a.InterCB(); slices.Max(b) >= s.BlocksPerPE()[0] {
		t.Errorf("fused B_max = %d, want below flat B for PE0 (%d)", slices.Max(b), s.BlocksPerPE()[0])
	}
}

// TestAggregateCopiedWords pins the copy accounting on the 4-PE
// example: gather legs carry every inter-node word sent by a
// non-leader, scatter legs every inter-node word received by one.
func TestAggregateCopiedWords(t *testing.T) {
	msg := [][]int64{
		{0, 5, 7, 2},
		{5, 0, 0, 3},
		{7, 0, 0, 4},
		{2, 3, 4, 0},
	}
	s := mustSchedule(t, msg)
	a, err := Aggregate(s, ContiguousNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	// Non-leader inter-node sends: PE1→3 (3), PE3→0 (2), PE3→1 (3) = 8.
	// Non-leader inter-node receives: PE1←3 (3), PE3←0 (2), PE3←1 (3) = 8.
	if got := a.CopiedWords(); got != 16 {
		t.Errorf("CopiedWords = %d, want 16", got)
	}
	// Payload is conserved exactly.
	var flat int64
	for _, row := range msg {
		for _, w := range row {
			flat += w
		}
	}
	if got := a.PayloadWords(); got != flat {
		t.Errorf("PayloadWords = %d, want %d", got, flat)
	}
}

// TestAggregateIdentityNodes: with one PE per node the transform is the
// identity on traffic — no local, gather, or scatter legs, and the
// fused leg IS the flat schedule.
func TestAggregateIdentityNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := mustSchedule(t, randMatrix(rng, 9, 0.5, 40))
	a, err := Aggregate(s, ContiguousNodes(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(s); err != nil {
		t.Fatal(err)
	}
	if a.CopiedWords() != 0 || totalWords(a.Local) != 0 {
		t.Fatalf("identity mapping produced copies (%d) or local traffic (%d)",
			a.CopiedWords(), totalWords(a.Local))
	}
	if got, want := a.Internode.TotalBlocks(), s.TotalBlocks(); got != want {
		t.Errorf("fused blocks = %d, want flat %d", got, want)
	}
	gc, gb := a.Internode.WordsPerPE(), a.Internode.BlocksPerPE()
	fc, fb := s.WordsPerPE(), s.BlocksPerPE()
	for i := range fc {
		if gc[i] != fc[i] || gb[i] != fb[i] {
			t.Fatalf("PE %d inter C/B = %d/%d, want flat %d/%d", i, gc[i], gb[i], fc[i], fb[i])
		}
	}
}

// TestAggregateOneNode: everything on one node means no inter-node
// traffic at all — the whole schedule becomes the Local leg.
func TestAggregateOneNode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := mustSchedule(t, randMatrix(rng, 6, 0.6, 25))
	a, err := Aggregate(s, ContiguousNodes(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(s); err != nil {
		t.Fatal(err)
	}
	if a.Internode.TotalBlocks() != 0 || a.CopiedWords() != 0 {
		t.Fatalf("single node still has %d fused blocks, %d copied words",
			a.Internode.TotalBlocks(), a.CopiedWords())
	}
	lc := a.Local.WordsPerPE()
	fc := s.WordsPerPE()
	for i := range fc {
		if lc[i] != fc[i] {
			t.Fatalf("PE %d local words = %d, want %d", i, lc[i], fc[i])
		}
	}
}

// TestAggregateInvariantsRandom sweeps random matrices across PE counts
// and node sizes, asserting via Check the full invariant set: leg
// validity, zero self-messages, per-pair (destination-sorted) ordering,
// leader discipline, and exact word conservation.
func TestAggregateInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33} {
		for _, nodeSize := range []int{1, 2, 3, 4, 8} {
			for trial := 0; trial < 4; trial++ {
				s := mustSchedule(t, randMatrix(rng, p, 0.4, 100))
				a, err := Aggregate(s, ContiguousNodes(nodeSize))
				if err != nil {
					t.Fatalf("p=%d nodeSize=%d: %v", p, nodeSize, err)
				}
				if err := a.Check(s); err != nil {
					t.Fatalf("p=%d nodeSize=%d: %v", p, nodeSize, err)
				}
				// Fewer (or equal) inter-node blocks than the flat
				// schedule's node-crossing block count.
				crossing := 0
				for i := range s.Out {
					for _, m := range s.Out[i] {
						if a.NodeOf[m.From] != a.NodeOf[m.To] {
							crossing++
						}
					}
				}
				if got := a.Internode.TotalBlocks(); got > crossing {
					t.Fatalf("p=%d nodeSize=%d: %d fused blocks from %d crossing messages",
						p, nodeSize, got, crossing)
				}
			}
		}
	}
}

// TestAggregateSplitComposition drives the two transforms together:
// splitting any leg of an aggregated plan preserves word totals and
// block-size bounds, and aggregating an already-split schedule fuses
// its fragments back into one block per node pair.
func TestAggregateSplitComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		s := mustSchedule(t, randMatrix(rng, 12, 0.5, 64))

		// Aggregate ∘ SplitBlocks: fragments of one message fuse back
		// into the same per-node-pair payload, so Check against the
		// split schedule (same traffic, more blocks) must pass.
		split, err := s.SplitBlocks(4)
		if err != nil {
			t.Fatal(err)
		}
		aSplit, err := Aggregate(split, ContiguousNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := aSplit.Check(split); err != nil {
			t.Fatalf("Aggregate∘SplitBlocks: %v", err)
		}
		// The fused leg is independent of the input's block structure.
		aFlat, err := Aggregate(s, ContiguousNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		ic, ib := aFlat.InterCB()
		sc, sb := aSplit.InterCB()
		for i := range ic {
			if ic[i] != sc[i] || ib[i] != sb[i] {
				t.Fatalf("PE %d fused C/B differ across split inputs: %d/%d vs %d/%d",
					i, ic[i], ib[i], sc[i], sb[i])
			}
		}

		// SplitBlocks ∘ Aggregate: re-splitting the fused leg conserves
		// words and respects the block bound.
		resplit, err := aFlat.Internode.SplitBlocks(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := resplit.Validate(); err != nil {
			t.Fatal(err)
		}
		rc := resplit.WordsPerPE()
		fc := aFlat.Internode.WordsPerPE()
		for i := range fc {
			if rc[i] != fc[i] {
				t.Fatalf("PE %d words changed by re-split: %d vs %d", i, rc[i], fc[i])
			}
		}
		for _, msgs := range resplit.Out {
			for _, m := range msgs {
				if m.Words <= 0 || m.Words > 8 {
					t.Fatalf("re-split block of %d words", m.Words)
				}
			}
		}
	}
}

// TestAggregateRejects covers the validation paths.
func TestAggregateRejects(t *testing.T) {
	s := mustSchedule(t, matrix3())
	if _, err := Aggregate(nil, ContiguousNodes(1)); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := Aggregate(s, nil); err == nil {
		t.Error("nil node mapping accepted")
	}
	if _, err := Aggregate(s, ContiguousNodes(0)); err == nil {
		t.Error("non-positive node size accepted")
	}
	if _, err := Aggregate(s, func(pe int32) int32 { return pe + 100 }); err == nil {
		t.Error("out-of-range node ids accepted")
	}
	bad := mustSchedule(t, matrix3())
	bad.Out[0][0].Words = -3
	if _, err := Aggregate(bad, ContiguousNodes(2)); err == nil {
		t.Error("invalid schedule accepted")
	}
}

// TestInternodeByNode checks the node-id reprojection the torus replay
// uses: per-node totals equal the fused leg's, with no self-messages.
func TestInternodeByNode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := mustSchedule(t, randMatrix(rng, 10, 0.5, 30))
	a, err := Aggregate(s, ContiguousNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	byNode := a.InternodeByNode()
	if byNode.P != a.NumNodes {
		t.Fatalf("node schedule has %d PEs, want %d nodes", byNode.P, a.NumNodes)
	}
	if err := byNode.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := byNode.TotalBlocks(), a.Internode.TotalBlocks(); got != want {
		t.Errorf("node schedule has %d blocks, fused leg %d", got, want)
	}
	var nodeWords, fusedWords int64
	for _, msgs := range byNode.Out {
		for _, m := range msgs {
			nodeWords += m.Words
		}
	}
	fusedWords = totalWords(a.Internode)
	if nodeWords != fusedWords {
		t.Errorf("node schedule carries %d words, fused leg %d", nodeWords, fusedWords)
	}
}

// TestMerge checks the schedule union used by the phase simulators.
func TestMerge(t *testing.T) {
	s := mustSchedule(t, matrix3())
	a, err := Aggregate(s, ContiguousNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(a.Local, a.Gather)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := totalWords(merged), totalWords(a.Local)+totalWords(a.Gather); got != want {
		t.Errorf("merged words = %d, want %d", got, want)
	}
	for _, msgs := range merged.Out {
		for i := 1; i < len(msgs); i++ {
			if msgs[i].To < msgs[i-1].To {
				t.Fatal("merged schedule not destination-sorted")
			}
		}
	}
	other := &Schedule{P: 5, Out: make([][]Message, 5)}
	if _, err := Merge(s, other); err == nil {
		t.Error("mismatched PE counts accepted")
	}
}
