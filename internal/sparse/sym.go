package sparse

import (
	"fmt"
	"sort"
)

// SymBCSR stores a symmetric 3×3-block matrix in upper-triangular block
// form, the storage scheme used by the Spark98 kernels: the diagonal
// block of every block row plus the strictly-upper blocks, each
// row-major as stored in the full matrix. The SMVP kernel applies each
// off-diagonal block twice (once directly, once transposed), halving
// memory traffic for the matrix at the cost of a scattered update to y.
// It is the operator every PE of a par.Dist holds.
type SymBCSR struct {
	N      int
	RowOff []int64   // per block row, into Col/Val (upper blocks only)
	Col    []int32   // column > row
	Val    []float64 // 9 per upper block
	Diag   []float64 // 9 per block row

	// folded marks a matrix built by NewSymFromBCSR: every column lies in
	// (row, N) and Val and Diag own symPad words of capacity past their
	// length. A vector kernel streams such a matrix without bounds
	// checks; a hand-built SymBCSR gets the pure-Go kernel, which has
	// them.
	folded bool
}

// symPad is the slack behind Val and Diag, in words. A vector kernel
// reads a block's last row as a four-lane load and its last element as a
// two-lane load, each one word past the block; the slack is a whole block
// row so that a kernel reading rows at any lane offset stays inside it.
const symPad = 3

// NewSymFromBCSR folds a block-symmetric BCSR matrix to symmetric
// storage in one pass over it, into arrays sized from the structure: a
// symmetric pattern of len(Col) blocks over N rows has one diagonal
// block per row and (len(Col) − N)/2 blocks above the diagonal. A matrix
// whose diagonal and upper blocks do not come to those counts has an
// asymmetric pattern and is an error. The lower blocks' values are never
// read: the kernel uses the transposes of their mirrors.
func NewSymFromBCSR(a *BCSR) (*SymBCSR, error) {
	n, nb := a.N, len(a.Col)
	if nb < n || (nb-n)%2 != 0 {
		return nil, fmt.Errorf("sparse: pattern asymmetric: %d blocks on %d rows", nb, n)
	}
	upper := (nb - n) / 2
	s := &SymBCSR{
		N:      n,
		RowOff: make([]int64, n+1),
		Col:    make([]int32, upper),
		Val:    make([]float64, 9*upper, 9*upper+symPad),
		Diag:   make([]float64, 9*n, 9*n+symPad),
		folded: true,
	}
	diags, k := 0, 0
	for i := 0; i < n; i++ {
		for b := a.RowOff[i]; b < a.RowOff[i+1]; b++ {
			switch j := a.Col[b]; {
			case j == int32(i):
				copy(s.Diag[9*i:9*i+9], a.Val[9*b:9*b+9])
				diags++
			case j > int32(i):
				if k == upper || int(j) >= n {
					return nil, fmt.Errorf("sparse: pattern asymmetric at block (%d,%d)", i, j)
				}
				s.Col[k] = j
				copy(s.Val[9*k:9*k+9], a.Val[9*b:9*b+9])
				k++
			}
		}
		s.RowOff[i+1] = int64(k)
	}
	if diags != n || k != upper {
		return nil, fmt.Errorf("sparse: pattern asymmetric: %d diagonal and %d upper blocks of %d on %d rows", diags, k, nb, n)
	}
	return s, nil
}

// EquivalentNNZ returns the number of scalar nonzeros of the full
// (unfolded) matrix this symmetric storage represents; the SMVP performs
// 2·EquivalentNNZ() flops just like the unsymmetric kernel.
func (s *SymBCSR) EquivalentNNZ() int { return 9 * (s.N + 2*len(s.Col)) }

// symKernel is the one kernel of a SymBCSR, y = A·x returning xᵀy: the
// pure-Go form, which is the definition, unless the platform's file
// installed a vector form of the same arithmetic at init. Tests flip it.
var symKernel = (*SymBCSR).mulVecDotGo

// MulVec computes y = A·x using symmetric storage. x and y are length
// 3N and must not alias. It is MulVecDot with the dot dropped — six
// flops a row — so the two cannot round apart.
func (s *SymBCSR) MulVec(y, x []float64) { s.MulVecDot(y, x) }

// MulVecDot computes y = A·x and returns xᵀy from the same pass, the
// kernel a CG iteration uses for ap = A·p and pᵀAp. Block row i adds its
// upper blocks' transposed products into the rows below it and collects
// its own row sum, which starts from the diagonal block, in registers;
// once the rows up to i are done y_i is final, so its three terms of the
// dot are taken there, in ascending index order like a sequential
// dot(x, y).
func (s *SymBCSR) MulVecDot(y, x []float64) float64 {
	if len(x) != 3*s.N || len(y) != 3*s.N {
		panic(fmt.Sprintf("sparse: SymBCSR MulVecDot dimension mismatch: N=%d, x %d, y %d", s.N, len(x), len(y)))
	}
	return symKernel(s, y, x)
}

// mulVecDotGo is the kernel's definition and its portable form. Every
// sum is written in the order the vector form evaluates it — a 3-term
// product sum is (t0 + t1) + t2, then one add into its destination — and
// every product is converted explicitly, which forbids the compiler from
// fusing it into the add that follows (GOAMD64=v3, arm64): the two forms
// agree bit for bit, and so do two platforms.
func (s *SymBCSR) mulVecDotGo(y, x []float64) float64 {
	clear(y)
	rowOff := s.RowOff
	lo := rowOff[0]
	var d float64
	for i := 0; i < s.N; i++ {
		hi := rowOff[i+1]
		cols := s.Col[lo:hi]
		vals := s.Val[9*lo : 9*hi : 9*hi]
		v := s.Diag[9*i : 9*i+9 : 9*i+9]
		xi0, xi1, xi2 := x[3*i], x[3*i+1], x[3*i+2]
		a0 := float64(v[0]*xi0) + float64(v[1]*xi1) + float64(v[2]*xi2)
		a1 := float64(v[3]*xi0) + float64(v[4]*xi1) + float64(v[5]*xi2)
		a2 := float64(v[6]*xi0) + float64(v[7]*xi1) + float64(v[8]*xi2)
		vi := 0
		for _, c := range cols {
			j := int(c) * 3
			v := vals[vi : vi+9 : vi+9]
			xj0, xj1, xj2 := x[j], x[j+1], x[j+2]
			y[j] += float64(v[0]*xi0) + float64(v[3]*xi1) + float64(v[6]*xi2)
			y[j+1] += float64(v[1]*xi0) + float64(v[4]*xi1) + float64(v[7]*xi2)
			y[j+2] += float64(v[2]*xi0) + float64(v[5]*xi1) + float64(v[8]*xi2)
			a0 += float64(v[0]*xj0) + float64(v[1]*xj1) + float64(v[2]*xj2)
			a1 += float64(v[3]*xj0) + float64(v[4]*xj1) + float64(v[5]*xj2)
			a2 += float64(v[6]*xj0) + float64(v[7]*xj1) + float64(v[8]*xj2)
			vi += 9
		}
		y0, y1, y2 := y[3*i]+a0, y[3*i+1]+a1, y[3*i+2]+a2
		y[3*i], y[3*i+1], y[3*i+2] = y0, y1, y2
		d += float64(xi0 * y0)
		d += float64(xi1 * y1)
		d += float64(xi2 * y2)
		lo = hi
	}
	return d
}

// Submatrix extracts the BCSR submatrix of a induced by the given node
// set: the result has len(nodes) block rows, with block (p, q) equal to
// a's block (nodes[p], nodes[q]). This is how each PE's local stiffness
// matrix is built from the global one: K_ij resides on any PE on which
// nodes i and j both reside.
func Submatrix(a *BCSR, nodes []int32) *BCSR {
	local := make(map[int32]int32, len(nodes))
	for p, g := range nodes {
		local[g] = int32(p)
	}
	n := len(nodes)
	rowOff := make([]int64, n+1)
	var cols []int32
	var vals []float64
	for p, g := range nodes {
		start := len(cols)
		for k := a.RowOff[g]; k < a.RowOff[g+1]; k++ {
			if q, ok := local[a.Col[k]]; ok {
				cols = append(cols, q)
				vals = append(vals, a.Val[9*k:9*k+9]...)
			}
		}
		// Column order within the row follows global order, which is not
		// necessarily local order; sort by local index.
		seg := cols[start:]
		vseg := vals[9*start:]
		idx := make([]int, len(seg))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return seg[idx[x]] < seg[idx[y]] })
		sc := make([]int32, len(seg))
		sv := make([]float64, len(vseg))
		for out, in := range idx {
			sc[out] = seg[in]
			copy(sv[9*out:9*out+9], vseg[9*in:9*in+9])
		}
		copy(seg, sc)
		copy(vseg, sv)
		rowOff[p+1] = int64(len(cols))
	}
	return &BCSR{N: n, RowOff: rowOff, Col: cols, Val: vals}
}
