package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// foldedCases are the matrices the kernel's two forms are compared on:
// random block-symmetric patterns of 1, 2 and a few dozen rows whose
// stored blocks — diagonal ones included — are not themselves symmetric,
// so a row/column mix-up in the transpose shows; a block diagonal (no
// row has an upper block); and a chain whose last rows have none, so the
// last stored block sits against the padding.
func foldedCases(t *testing.T, rng *rand.Rand) []*SymBCSR {
	t.Helper()
	var full []*BCSR
	for _, n := range []int{1, 2, 2, 3, 7, 20, 41} {
		full = append(full, randomBCSR(rng, n))
	}
	full = append(full, NewBCSRStructure(5, nil), NewBCSRStructure(6, [][2]int32{{0, 1}, {1, 2}, {0, 3}}))
	var out []*SymBCSR
	for _, a := range full {
		for i := range a.Val {
			a.Val[i] = rng.NormFloat64()
		}
		s, err := NewSymFromBCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		// The slack behind the arrays is read, never used: poison it.
		for _, arr := range [][]float64{s.Val, s.Diag} {
			pad := arr[len(arr):cap(arr)]
			if len(pad) < symPad {
				t.Fatalf("fold left %d words of slack, want %d", len(pad), symPad)
			}
			for i := range pad {
				pad[i] = math.NaN()
			}
		}
		out = append(out, s)
	}
	return out
}

// TestSymKernelFormsBitIdentical: the vector kernel selected at init and
// the pure-Go definition produce the same bits, y and dot, through both
// entry points and with the switch either way; MulVec is MulVecDot's y;
// and neither form writes past y.
func TestSymKernelFormsBitIdentical(t *testing.T) {
	selected := symKernel
	defer func() { symKernel = selected }()
	if reflect.ValueOf(selected).Pointer() == reflect.ValueOf((*SymBCSR).mulVecDotGo).Pointer() {
		t.Log("no vector kernel on this platform: comparing the Go kernel with itself")
	}
	rng := rand.New(rand.NewSource(23))
	const sentinel = 12345.5
	for ci, s := range foldedCases(t, rng) {
		n3 := 3 * s.N
		x := randVec(rng, n3)
		run := func(kernel func(*SymBCSR, []float64, []float64) float64, dot bool) ([]float64, float64) {
			symKernel = kernel
			buf := make([]float64, n3+1)
			for i := range buf {
				buf[i] = sentinel // stale values must not survive either
			}
			var d float64
			if dot {
				d = s.MulVecDot(buf[:n3], x)
			} else {
				s.MulVec(buf[:n3], x)
			}
			if buf[n3] != sentinel {
				t.Fatalf("case %d (N=%d): kernel wrote past y", ci, s.N)
			}
			return buf[:n3], d
		}
		yg, dg := run((*SymBCSR).mulVecDotGo, true)
		yv, dv := run(selected, true)
		ym, _ := run(selected, false)
		yn, _ := run((*SymBCSR).mulVecDotGo, false)
		for i := range yg {
			want := math.Float64bits(yg[i])
			if math.Float64bits(yv[i]) != want || math.Float64bits(ym[i]) != want || math.Float64bits(yn[i]) != want {
				t.Fatalf("case %d (N=%d): y[%d] Go %x, selected %x, MulVec %x / %x", ci, s.N, i,
					want, math.Float64bits(yv[i]), math.Float64bits(ym[i]), math.Float64bits(yn[i]))
			}
		}
		if math.Float64bits(dg) != math.Float64bits(dv) {
			t.Fatalf("case %d (N=%d): dot Go %x, selected %x", ci, s.N, math.Float64bits(dg), math.Float64bits(dv))
		}
		if want := seqDot(x, yg); math.Float64bits(dg) != math.Float64bits(want) {
			t.Fatalf("case %d (N=%d): fused dot %x, sequential %x", ci, s.N, math.Float64bits(dg), math.Float64bits(want))
		}
	}
}

// TestSymKernelMatchesDense: the kernel applies each stored block as
// stored and each upper block's transpose below the diagonal.
func TestSymKernelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for ci, s := range foldedCases(t, rng) {
		n3 := 3 * s.N
		x := randVec(rng, n3)
		want := make([]float64, n3)
		scale := make([]float64, n3)
		add := func(r, c int, v float64) {
			want[r] += v * x[c]
			scale[r] += math.Abs(v * x[c])
		}
		for i := 0; i < s.N; i++ {
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					add(3*i+r, 3*i+c, s.Diag[9*i+3*r+c])
				}
			}
			for k := s.RowOff[i]; k < s.RowOff[i+1]; k++ {
				j := int(s.Col[k])
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						v := s.Val[9*int(k)+3*r+c]
						add(3*i+r, 3*j+c, v)
						add(3*j+c, 3*i+r, v)
					}
				}
			}
		}
		got := make([]float64, n3)
		s.MulVec(got, x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-13*(1+scale[i]) {
				t.Fatalf("case %d (N=%d): y[%d] = %g, dense %g", ci, s.N, i, got[i], want[i])
			}
		}
	}
}

// TestSymHandBuiltRunsChecked: a SymBCSR that did not come out of the
// fold has no slack behind its arrays and unchecked columns; it must get
// the bounds-checked kernel whatever form is selected, and the same
// product.
func TestSymHandBuiltRunsChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	folded, err := NewSymFromBCSR(randomBCSR(rng, 12))
	if err != nil {
		t.Fatal(err)
	}
	hand := &SymBCSR{N: folded.N, RowOff: folded.RowOff, Col: folded.Col,
		Val: folded.Val[:len(folded.Val):len(folded.Val)], Diag: folded.Diag[:len(folded.Diag):len(folded.Diag)]}
	x := randVec(rng, 3*hand.N)
	yf, yh := make([]float64, 3*hand.N), make([]float64, 3*hand.N)
	df, dh := folded.MulVecDot(yf, x), hand.MulVecDot(yh, x)
	if math.Float64bits(df) != math.Float64bits(dh) || !reflect.DeepEqual(yf, yh) {
		t.Fatal("hand-built and folded matrices disagree")
	}
	hand.Col[len(hand.Col)-1] = int32(hand.N) // out of range: a panic, not a stray write
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column did not panic")
		}
	}()
	hand.MulVec(yh, x)
}

// TestSymMerged: a merge is the fold of the matrix its rows come from.
// Every row from the assembled matrix is NewSymFromBCSR's result; every
// row, or every other row, copied from that fold through the identity
// numbering is the fold again; a source renumbered into a matrix one row
// larger keeps its values under the shifted columns. A copied column not
// above its row, an assembled row without a diagonal block and an
// assembled matrix of another size are errors.
func TestSymMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{1, 2, 7, 20} {
		a := randomBCSR(rng, n)
		want, err := NewSymFromBCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		ident := make([]int32, n)
		for c := range ident {
			ident[c] = int32(c)
		}
		srcs := []SymSource{{M: want, Cols: ident}}
		for _, every := range []int{0, 1, 2} { // copy no row, every row, every other row
			rows := make([]RowRef, n)
			for i := range rows {
				rows[i] = RowRef{Src: -1}
				if every > 0 && i%every == 0 {
					rows[i] = RowRef{Src: 0, Row: int32(i)}
				}
			}
			got, err := NewSymMerged(a, srcs, rows)
			if err != nil {
				t.Fatalf("n=%d, every %d: %v", n, every, err)
			}
			if !reflect.DeepEqual(got, want) || cap(got.Val)-len(got.Val) != symPad || cap(got.Diag)-len(got.Diag) != symPad {
				t.Fatalf("n=%d, every %d: merge differs from the fold", n, every)
			}
		}

		// Shift every row down by one under a new, empty row 0.
		shift := make([]int32, n)
		rows := []RowRef{{Src: -1}}
		for c := range shift {
			shift[c] = int32(c + 1)
			rows = append(rows, RowRef{Src: 0, Row: int32(c)})
		}
		got, err := NewSymMerged(NewBCSRStructure(n+1, nil), []SymSource{{M: want, Cols: shift}}, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			lo, hi := want.RowOff[i], want.RowOff[i+1]
			glo := got.RowOff[i+1]
			for k := lo; k < hi; k++ {
				if got.Col[glo+k-lo] != want.Col[k]+1 {
					t.Fatalf("n=%d: shifted row %d has column %d, want %d", n, i+1, got.Col[glo+k-lo], want.Col[k]+1)
				}
			}
			if !reflect.DeepEqual(got.Val[9*glo:9*(glo+hi-lo)], want.Val[9*lo:9*hi]) || !reflect.DeepEqual(got.Diag[9*(i+1):9*(i+2)], want.Diag[9*i:9*i+9]) {
				t.Fatalf("n=%d: shifted row %d has other values", n, i+1)
			}
		}
	}

	a := randomBCSR(rng, 6)
	s, err := NewSymFromBCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	copied := make([]RowRef, 6)
	assembled := make([]RowRef, 6)
	for i := range copied {
		copied[i] = RowRef{Src: 0, Row: int32(i)}
		assembled[i] = RowRef{Src: -1}
	}
	noDiag := &BCSR{N: 6, RowOff: make([]int64, 7)}
	for _, c := range []struct {
		name string
		a    *BCSR
		srcs []SymSource
		rows []RowRef
	}{
		{"column not above its row", a, []SymSource{{M: s, Cols: []int32{-1, -1, -1, -1, -1, -1}}}, copied},
		{"no diagonal block", noDiag, nil, assembled},
		{"assembled matrix of another size", NewBCSRStructure(5, nil), nil, assembled},
	} {
		if _, err := NewSymMerged(c.a, c.srcs, c.rows); err == nil {
			t.Errorf("%s: merged without an error", c.name)
		}
	}
}
