package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// referenceCSRMulVec is the pre-optimization CSR kernel, kept verbatim
// as the bit-exact oracle: the tuned MulVec must produce the same
// floats because it only hoists slice headers, never reassociates.
func referenceCSRMulVec(a *CSR, y, x []float64) {
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for k := a.RowOff[i]; k < a.RowOff[i+1]; k++ {
			sum += a.Val[k] * x[a.Col[k]]
		}
		y[i] = sum
	}
}

// referenceBCSRMulVec is the pre-optimization BCSR kernel, the bit-exact
// oracle for the register-resident rewrite.
func referenceBCSRMulVec(a *BCSR, y, x []float64) {
	for i := 0; i < a.N; i++ {
		var s0, s1, s2 float64
		for k := a.RowOff[i]; k < a.RowOff[i+1]; k++ {
			j := int(a.Col[k]) * 3
			v := a.Val[9*k : 9*k+9 : 9*k+9]
			x0, x1, x2 := x[j], x[j+1], x[j+2]
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2
			s1 += v[3]*x0 + v[4]*x1 + v[5]*x2
			s2 += v[6]*x0 + v[7]*x1 + v[8]*x2
		}
		y[3*i] = s0
		y[3*i+1] = s1
		y[3*i+2] = s2
	}
}

func seqDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestTunedKernelsBitIdentical pins the tuning contract: the rewritten
// CSR/BCSR hot loops are pure scheduling changes, so every output float
// matches the reference kernels bit for bit. Any reassociation — which
// would silently move regress.Vector fingerprints of solution vectors —
// fails here before it reaches the golden suite.
func TestTunedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		b := randomBCSR(rng, n)
		x := randVec(rng, 3*n)
		yt := make([]float64, 3*n)
		yr := make([]float64, 3*n)
		b.MulVec(yt, x)
		referenceBCSRMulVec(b, yr, x)
		for i := range yt {
			if math.Float64bits(yt[i]) != math.Float64bits(yr[i]) {
				t.Fatalf("trial %d: BCSR.MulVec[%d] = %x, reference %x", trial,
					i, math.Float64bits(yt[i]), math.Float64bits(yr[i]))
			}
		}
		c := b.ToCSR()
		yt = make([]float64, 3*n)
		yr = make([]float64, 3*n)
		c.MulVec(yt, x)
		referenceCSRMulVec(c, yr, x)
		for i := range yt {
			if math.Float64bits(yt[i]) != math.Float64bits(yr[i]) {
				t.Fatalf("trial %d: CSR.MulVec[%d] = %x, reference %x", trial,
					i, math.Float64bits(yt[i]), math.Float64bits(yr[i]))
			}
		}
	}
}

// TestMulVecDotPanics: the symmetric kernel refuses vectors that are not
// 3N long instead of reading or writing past them.
func TestMulVecDotPanics(t *testing.T) {
	s, err := NewSymFromBCSR(randomBCSR(rand.New(rand.NewSource(41)), 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		y, x int
	}{{"short x", 12, 11}, {"short y", 11, 12}, {"long x", 12, 13}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MulVecDot did not panic", c.name)
				}
			}()
			s.MulVecDot(make([]float64, c.y), make([]float64, c.x))
		}()
	}
}
