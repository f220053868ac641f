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
