// Package sparse implements the sparse matrix formats and sequential
// sparse matrix–vector product (SMVP) kernels at the heart of the Quake
// applications. The stiffness matrix K is a 3n×3n matrix with a 3×3
// block for every mesh edge (and node), so the natural formats are
// scalar CSR and 3×3-block CSR (BCSR), plus a symmetric variant that
// stores only the upper triangle the way the Spark98 kernels do.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a scalar compressed-sparse-row matrix. Row i's nonzeros are
// Col[RowOff[i]:RowOff[i+1]] (sorted ascending) with values in the
// corresponding positions of Val.
type CSR struct {
	Rows, Cols int
	RowOff     []int64
	Col        []int32
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.Col) }

// NewCSRFromTriplets builds a rows×cols CSR matrix from coordinate
// triplets. Duplicate (row, col) entries are summed. The inputs are not
// modified.
func NewCSRFromTriplets(rows, cols int, ri, ci []int32, v []float64) (*CSR, error) {
	if len(ri) != len(ci) || len(ri) != len(v) {
		return nil, fmt.Errorf("sparse: triplet slices have mismatched lengths %d/%d/%d",
			len(ri), len(ci), len(v))
	}
	for k := range ri {
		if ri[k] < 0 || int(ri[k]) >= rows || ci[k] < 0 || int(ci[k]) >= cols {
			return nil, fmt.Errorf("sparse: triplet %d (%d,%d) out of %d×%d", k, ri[k], ci[k], rows, cols)
		}
	}
	order := make([]int, len(ri))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if ri[a] != ri[b] {
			return ri[a] < ri[b]
		}
		return ci[a] < ci[b]
	})
	m := &CSR{Rows: rows, Cols: cols, RowOff: make([]int64, rows+1)}
	lastRow, lastCol := int32(-1), int32(-1)
	for _, k := range order {
		if ri[k] == lastRow && ci[k] == lastCol {
			m.Val[len(m.Val)-1] += v[k]
			continue
		}
		m.Col = append(m.Col, ci[k])
		m.Val = append(m.Val, v[k])
		lastRow, lastCol = ri[k], ci[k]
		m.RowOff[ri[k]+1]++
	}
	for i := 0; i < rows; i++ {
		m.RowOff[i+1] += m.RowOff[i]
	}
	return m, nil
}

// MulVec computes y = A·x. y and x must not alias; len(x) = Cols,
// len(y) = Rows.
//
// The row loop re-slices Col/Val once per row and ranges over the
// column segment, so the inner loop carries no per-element bounds
// checks on the matrix arrays and no repeated RowOff loads — the
// accumulation order is unchanged (left to right within the row), so
// the result is bit-identical to the reference formulation. Each product
// is converted explicitly, which forbids fusing it into the add (arm64):
// every target rounds it as amd64 does.
func (a *CSR) MulVec(y, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: A is %d×%d, x %d, y %d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	rowOff := a.RowOff
	lo := rowOff[0]
	for i := 0; i < a.Rows; i++ {
		hi := rowOff[i+1]
		cols := a.Col[lo:hi]
		vals := a.Val[lo:hi:hi]
		var sum float64
		for k, c := range cols {
			sum += float64(vals[k] * x[c])
		}
		y[i] = sum
		lo = hi
	}
}

// At returns the (i, j) entry (zero if not stored).
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowOff[i], a.RowOff[i+1]
	seg := a.Col[lo:hi]
	k := sort.Search(len(seg), func(p int) bool { return seg[p] >= int32(j) })
	if k < len(seg) && seg[k] == int32(j) {
		return a.Val[lo+int64(k)]
	}
	return 0
}

// IsSymmetric reports whether the matrix is numerically symmetric within
// the given relative tolerance. Only meaningful for square matrices.
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowOff[i]; k < a.RowOff[i+1]; k++ {
			j := int(a.Col[k])
			if j < i {
				continue
			}
			v, vt := a.Val[k], a.At(j, i)
			if math.Abs(v-vt) > tol*(1+math.Abs(v)+math.Abs(vt)) {
				return false
			}
		}
	}
	return true
}
