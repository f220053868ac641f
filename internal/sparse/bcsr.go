package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// BCSR is a block compressed-sparse-row matrix with dense 3×3 blocks,
// the natural format for a stiffness matrix with three degrees of
// freedom per mesh node. Block row i's blocks are
// Col[RowOff[i]:RowOff[i+1]] (sorted ascending); the values of block k
// occupy Val[9k:9k+9] in row-major order.
type BCSR struct {
	N      int // block rows (= block cols; matrix is 3N×3N scalars)
	RowOff []int64
	Col    []int32
	Val    []float64
}

// NewBCSRStructure allocates a zero-valued BCSR for an n-node mesh whose
// unique undirected edges are given: every node gets a diagonal block,
// and every edge (i, j) gets blocks (i, j) and (j, i). This is exactly
// the sparsity of the assembled stiffness matrix.
func NewBCSRStructure(n int, edges [][2]int32) *BCSR {
	rowCnt := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowCnt[i+1] = 1 // diagonal
	}
	for _, e := range edges {
		rowCnt[e[0]+1]++
		rowCnt[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		rowCnt[i+1] += rowCnt[i]
	}
	nb := rowCnt[n]
	m := &BCSR{
		N:      n,
		RowOff: rowCnt,
		Col:    make([]int32, nb),
		Val:    make([]float64, 9*nb),
	}
	cursor := make([]int64, n)
	for i := 0; i < n; i++ {
		cursor[i] = m.RowOff[i]
		m.Col[cursor[i]] = int32(i)
		cursor[i]++
	}
	for _, e := range edges {
		m.Col[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		m.Col[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	for i := 0; i < n; i++ {
		slices.Sort(m.Col[m.RowOff[i]:m.RowOff[i+1]])
	}
	return m
}

// NNZBlocks returns the number of stored 3×3 blocks.
func (a *BCSR) NNZBlocks() int { return len(a.Col) }

// NNZ returns the number of stored scalar entries.
func (a *BCSR) NNZ() int { return 9 * len(a.Col) }

// BlockIndex returns the storage index of block (i, j), or -1 if the
// block is not in the sparsity pattern.
func (a *BCSR) BlockIndex(i, j int32) int64 {
	lo, hi := a.RowOff[i], a.RowOff[i+1]
	seg := a.Col[lo:hi]
	k := sort.Search(len(seg), func(p int) bool { return seg[p] >= j })
	if k < len(seg) && seg[k] == j {
		return lo + int64(k)
	}
	return -1
}

// AddBlock accumulates the 3×3 block b (row-major) into block (i, j).
// It panics if the block is outside the sparsity pattern: assembly must
// only touch node pairs connected by a mesh edge.
func (a *BCSR) AddBlock(i, j int32, b *[9]float64) {
	k := a.BlockIndex(i, j)
	if k < 0 {
		panic(fmt.Sprintf("sparse: block (%d,%d) outside sparsity pattern", i, j))
	}
	v := a.Val[9*k : 9*k+9]
	for p := 0; p < 9; p++ {
		v[p] += b[p]
	}
}

// Block returns a copy of block (i, j) (zeros if absent).
func (a *BCSR) Block(i, j int32) [9]float64 {
	var out [9]float64
	if k := a.BlockIndex(i, j); k >= 0 {
		copy(out[:], a.Val[9*k:9*k+9])
	}
	return out
}

// MulVec computes y = A·x where x and y are scalar vectors of length 3N
// (three degrees of freedom per block row). This is the reference SMVP
// kernel; the computation performs 2·NNZ() useful flops, matching the
// paper's F = 2m accounting.
//
// The hot loop keeps the three row sums register-resident and walks a
// per-row re-slice of Col/Val: the 3×3 micro-kernel is fully unrolled,
// the row offsets are loaded once per row instead of once per block,
// and the value cursor advances by 9 through a row-local slice instead
// of re-indexing the whole Val array per block. The floating-point
// evaluation order of each sum is exactly the reference kernel's, so
// the output is bit-identical.
func (a *BCSR) MulVec(y, x []float64) {
	if len(x) != 3*a.N || len(y) != 3*a.N {
		panic(fmt.Sprintf("sparse: BCSR MulVec dimension mismatch: N=%d, x %d, y %d", a.N, len(x), len(y)))
	}
	rowOff := a.RowOff
	lo := rowOff[0]
	for i := 0; i < a.N; i++ {
		hi := rowOff[i+1]
		cols := a.Col[lo:hi]
		vals := a.Val[9*lo : 9*hi : 9*hi]
		var s0, s1, s2 float64
		vi := 0
		for _, c := range cols {
			j := int(c) * 3
			v := vals[vi : vi+9 : vi+9]
			x0, x1, x2 := x[j], x[j+1], x[j+2]
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2
			s1 += v[3]*x0 + v[4]*x1 + v[5]*x2
			s2 += v[6]*x0 + v[7]*x1 + v[8]*x2
			vi += 9
		}
		y[3*i] = s0
		y[3*i+1] = s1
		y[3*i+2] = s2
		lo = hi
	}
}

// MulVecDot computes y = A·x and returns x·y accumulated in the same
// pass over the matrix: the fused kernel a CG iteration uses to obtain
// ap = A·p and pᵀAp without a second sweep over the vectors. The dot is
// accumulated one scalar product at a time in ascending index order —
// the same order a sequential dot(x, y) uses — so the returned value is
// bit-identical to MulVec followed by a separate dot.
func (a *BCSR) MulVecDot(y, x []float64) float64 {
	if len(x) != 3*a.N || len(y) != 3*a.N {
		panic(fmt.Sprintf("sparse: BCSR MulVecDot dimension mismatch: N=%d, x %d, y %d", a.N, len(x), len(y)))
	}
	rowOff := a.RowOff
	lo := rowOff[0]
	var d float64
	for i := 0; i < a.N; i++ {
		hi := rowOff[i+1]
		cols := a.Col[lo:hi]
		vals := a.Val[9*lo : 9*hi : 9*hi]
		var s0, s1, s2 float64
		vi := 0
		for _, c := range cols {
			j := int(c) * 3
			v := vals[vi : vi+9 : vi+9]
			x0, x1, x2 := x[j], x[j+1], x[j+2]
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2
			s1 += v[3]*x0 + v[4]*x1 + v[5]*x2
			s2 += v[6]*x0 + v[7]*x1 + v[8]*x2
			vi += 9
		}
		y[3*i] = s0
		y[3*i+1] = s1
		y[3*i+2] = s2
		d += x[3*i] * s0
		d += x[3*i+1] * s1
		d += x[3*i+2] * s2
		lo = hi
	}
	return d
}

// ToCSR expands the block matrix into scalar CSR form.
func (a *BCSR) ToCSR() *CSR {
	n3 := 3 * a.N
	c := &CSR{
		Rows:   n3,
		Cols:   n3,
		RowOff: make([]int64, n3+1),
		Col:    make([]int32, 0, a.NNZ()),
		Val:    make([]float64, 0, a.NNZ()),
	}
	for i := 0; i < a.N; i++ {
		for r := 0; r < 3; r++ {
			for k := a.RowOff[i]; k < a.RowOff[i+1]; k++ {
				j := a.Col[k]
				for cc := 0; cc < 3; cc++ {
					c.Col = append(c.Col, 3*j+int32(cc))
					c.Val = append(c.Val, a.Val[9*k+int64(3*r+cc)])
				}
			}
			c.RowOff[3*i+r+1] = int64(len(c.Col))
		}
	}
	return c
}

// IsBlockSymmetric reports whether A equals its transpose within tol
// (block (i,j) equals the transpose of block (j,i)).
func (a *BCSR) IsBlockSymmetric(tol float64) bool {
	for i := 0; i < a.N; i++ {
		for k := a.RowOff[i]; k < a.RowOff[i+1]; k++ {
			j := a.Col[k]
			if j < int32(i) {
				continue
			}
			kt := a.BlockIndex(j, int32(i))
			if kt < 0 {
				return false
			}
			v, vt := a.Val[9*k:9*k+9], a.Val[9*kt:9*kt+9]
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					x, y := v[3*r+c], vt[3*c+r]
					if math.Abs(x-y) > tol*(1+math.Abs(x)+math.Abs(y)) {
						return false
					}
				}
			}
		}
	}
	return true
}
