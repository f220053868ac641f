package partition

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/obs"
)

// WordsPerNode is the number of 64-bit words exchanged per shared node
// per direction: one per degree of freedom (x, y, z displacement).
const WordsPerNode = 3

// Profile captures everything the paper's models need to know about a
// partitioned SMVP: per-PE flop counts, communication words and block
// counts, and the full PE-to-PE message matrix. All conventions follow
// the paper (Figure 7):
//
//   - F[i] is the flop count of PE i's local SMVP: two flops per stored
//     scalar nonzero of the local stiffness matrix, where the local
//     matrix holds block K_ij for every resident node pair — including
//     blocks replicated on several PEs.
//   - Msg[i][j] is the number of 64-bit words PE i sends to PE j during
//     the exchange: three words per node shared between i and j. The
//     matrix is symmetric, because every message is matched by an equal
//     reply carrying the partner's partial sums.
//   - C[i] counts words sent AND received by PE i (hence even and
//     divisible by six), and B[i] counts blocks sent and received under
//     maximal aggregation (one block per neighbor per direction).
type Profile struct {
	P   int
	F   []int64
	C   []int64
	B   []int64
	Msg [][]int64

	// FBoundary[i] is the portion of F[i] spent on block rows whose row
	// node is shared with another PE. These rows must be computed
	// before the exchange can start, so F - FBoundary is the work
	// available to hide communication behind when the application
	// overlaps the phases (the paper's footnote 1; see model.Overlap).
	FBoundary []int64

	// NodesOnPE lists the global node ids resident on each PE, sorted.
	// A node is resident on every PE that owns an element touching it.
	NodesOnPE [][]int32
	// NodePEs is the CSR-ish per-node list of PEs the node resides on,
	// sorted; shared nodes are those with more than one entry.
	NodePEs [][]int32
	// SharedNodes is the total number of nodes resident on >1 PE.
	SharedNodes int
}

// Analyze computes the communication profile of the partitioned mesh.
func Analyze(m *mesh.Mesh, pt *Partition) (*Profile, error) {
	sp := obs.StartSpan(obs.TrackDriver, "setup", "partition.analyze")
	defer sp.End()
	if len(pt.ElemPE) != m.NumElems() {
		return nil, fmt.Errorf("partition: partition covers %d elements, mesh has %d",
			len(pt.ElemPE), m.NumElems())
	}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	n := m.NumNodes()
	p := pt.P
	pr := &Profile{
		P:       p,
		F:       make([]int64, p),
		C:       make([]int64, p),
		B:       make([]int64, p),
		NodePEs: make([][]int32, n),
	}

	// Node residency: node i resides on PE p iff some element of p
	// touches i.
	for e, t := range m.Tets {
		pe := pt.ElemPE[e]
		for _, v := range t {
			lst := pr.NodePEs[v]
			found := false
			for _, q := range lst {
				if q == pe {
					found = true
					break
				}
			}
			if !found {
				pr.NodePEs[v] = append(lst, pe)
			}
		}
	}
	for i := range pr.NodePEs {
		lst := pr.NodePEs[i]
		slices.Sort(lst)
		if len(lst) > 1 {
			pr.SharedNodes++
		}
	}

	// Resident node lists per PE.
	pr.NodesOnPE = make([][]int32, p)
	for i := 0; i < n; i++ {
		for _, pe := range pr.NodePEs[i] {
			pr.NodesOnPE[pe] = append(pr.NodesOnPE[pe], int32(i))
		}
	}

	// Message matrix: 3 words per shared node per ordered PE pair.
	pr.Msg = make([][]int64, p)
	for i := range pr.Msg {
		pr.Msg[i] = make([]int64, p)
	}
	for i := 0; i < n; i++ {
		lst := pr.NodePEs[i]
		for a := 0; a < len(lst); a++ {
			for b := a + 1; b < len(lst); b++ {
				pr.Msg[lst[a]][lst[b]] += WordsPerNode
				pr.Msg[lst[b]][lst[a]] += WordsPerNode
			}
		}
	}

	// C and B from the message matrix.
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j || pr.Msg[i][j] == 0 {
				continue
			}
			pr.C[i] += pr.Msg[i][j] + pr.Msg[j][i] // sent + received
			pr.B[i] += 2                           // one block out, one in
		}
	}

	// F: local nonzero blocks = resident diagonal blocks + two blocks
	// per edge whose endpoints are both resident on the PE. The edge
	// residency set is the intersection of the endpoint residency sets.
	// Boundary blocks are those in rows of shared nodes.
	blocks := make([]int64, p)
	bblocks := make([]int64, p)
	for i := 0; i < n; i++ {
		shared := len(pr.NodePEs[i]) > 1
		for _, pe := range pr.NodePEs[i] {
			blocks[pe]++
			if shared {
				bblocks[pe]++
			}
		}
	}
	for _, e := range m.Edges() {
		la, lb := pr.NodePEs[e[0]], pr.NodePEs[e[1]]
		aShared, bShared := len(la) > 1, len(lb) > 1
		// Intersect two short sorted lists.
		x, y := 0, 0
		for x < len(la) && y < len(lb) {
			switch {
			case la[x] < lb[y]:
				x++
			case la[x] > lb[y]:
				y++
			default:
				blocks[la[x]] += 2 // (a,b) and (b,a)
				if aShared {
					bblocks[la[x]]++ // row a block (a,b)
				}
				if bShared {
					bblocks[la[x]]++ // row b block (b,a)
				}
				x++
				y++
			}
		}
	}
	pr.FBoundary = make([]int64, p)
	for i := 0; i < p; i++ {
		pr.F[i] = 2 * 9 * blocks[i] // two flops per scalar nonzero
		pr.FBoundary[i] = 2 * 9 * bblocks[i]
	}
	obs.GetCounter("partition.analyze.calls").Add(1)
	obs.GetGauge("partition.shared_nodes").Set(float64(pr.SharedNodes))
	return pr, nil
}

// FBoundaryMax returns max_i FBoundary[i].
func (pr *Profile) FBoundaryMax() int64 { return maxi64(pr.FBoundary) }

// Fmax returns max_i F[i], the paper's per-PE flop count F.
func (pr *Profile) Fmax() int64 { return maxi64(pr.F) }

// Cmax returns max_i C[i], the paper's C_max.
func (pr *Profile) Cmax() int64 { return maxi64(pr.C) }

// Bmax returns max_i B[i] under maximal aggregation, the paper's B_max.
func (pr *Profile) Bmax() int64 { return maxi64(pr.B) }

// TotalWords returns the total directed communication volume in words.
func (pr *Profile) TotalWords() int64 {
	var v int64
	for i := range pr.Msg {
		for j := range pr.Msg[i] {
			v += pr.Msg[i][j]
		}
	}
	return v
}

// TotalMessages returns the number of directed messages (nonzero m_ij).
func (pr *Profile) TotalMessages() int64 {
	var c int64
	for i := range pr.Msg {
		for j := range pr.Msg[i] {
			if i != j && pr.Msg[i][j] > 0 {
				c++
			}
		}
	}
	return c
}

// Mavg returns the average message size in words (Figure 7's M_avg):
// total directed volume over directed message count.
func (pr *Profile) Mavg() float64 {
	msgs := pr.TotalMessages()
	if msgs == 0 {
		return 0
	}
	return float64(pr.TotalWords()) / float64(msgs)
}

// CompCommRatio returns F/C_max, the computation/communication ratio of
// Figure 7. It returns +Inf when there is no communication.
func (pr *Profile) CompCommRatio() float64 {
	c := pr.Cmax()
	if c == 0 {
		return math.Inf(1)
	}
	return float64(pr.Fmax()) / float64(c)
}

// Beta computes the paper's error bound β on the model's assumption that
// the max-words PE is also the max-blocks PE:
//
//	β = 1 + min over PEs i of max{ C_max(B_max−B_i)/(C_i·B_max),
//	                               B_max(C_max−C_i)/(B_i·C_max) }.
//
// β is 1 when some PE attains both maxima and is provably below 2. PEs
// that do not communicate at all are skipped (they cannot bound the
// communication phase). The computation lives in model.BetaOf so the
// aggregated exchange can evaluate the same bound on its fused leg's
// per-PE vectors.
func (pr *Profile) Beta() float64 { return model.BetaOf(pr.C, pr.B) }

// BisectionWords returns the number of words crossing the canonical
// bisection (PEs 0..P/2-1 versus the rest) during one exchange phase:
// V = 2·Σ_{i<P/2} Σ_{j≥P/2} m_ij, per Section 4.2.
func (pr *Profile) BisectionWords() int64 {
	half := pr.P / 2
	var v int64
	for i := 0; i < half; i++ {
		for j := half; j < pr.P; j++ {
			v += pr.Msg[i][j]
		}
	}
	return 2 * v
}

// MaxNeighbors returns the largest number of distinct communication
// partners of any PE (B_max/2 under maximal aggregation).
func (pr *Profile) MaxNeighbors() int {
	best := 0
	for i := 0; i < pr.P; i++ {
		cnt := 0
		for j := 0; j < pr.P; j++ {
			if i != j && pr.Msg[i][j] > 0 {
				cnt++
			}
		}
		if cnt > best {
			best = cnt
		}
	}
	return best
}

// LoadImbalance returns max(F)/mean(F), a measure of how evenly the
// partitioner spread the computation.
func (pr *Profile) LoadImbalance() float64 {
	var sum int64
	for _, f := range pr.F {
		sum += f
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(pr.P)
	return float64(pr.Fmax()) / mean
}

// Distribution summarizes the spread of a per-PE quantity. The paper's
// tables report only maxima; the technical report it draws on also
// studies the distributions, which show how far the partitioner is
// from balancing communication (not just computation).
type Distribution struct {
	Min, Median, P90, Max int64
	Mean                  float64
}

// DistributionOf computes the summary of a per-PE quantity.
func DistributionOf(xs []int64) Distribution {
	if len(xs) == 0 {
		return Distribution{}
	}
	sorted := make([]int64, len(xs))
	copy(sorted, xs)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	pick := func(q float64) int64 {
		i := int(math.Ceil(q * float64(len(sorted)-1)))
		return sorted[i]
	}
	return Distribution{
		Min:    sorted[0],
		Median: pick(0.5),
		P90:    pick(0.9),
		Max:    sorted[len(sorted)-1],
		Mean:   float64(sum) / float64(len(sorted)),
	}
}

// CDistribution summarizes the per-PE communication word counts.
func (pr *Profile) CDistribution() Distribution { return DistributionOf(pr.C) }

// BDistribution summarizes the per-PE block counts.
func (pr *Profile) BDistribution() Distribution { return DistributionOf(pr.B) }

// FDistribution summarizes the per-PE flop counts.
func (pr *Profile) FDistribution() Distribution { return DistributionOf(pr.F) }

func maxi64(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
