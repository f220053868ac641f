package sparse

import "unsafe"

// symMulVecDotAVX2 is mulVecDotGo's arithmetic on four-lane vectors
// (symk_amd64.s). It trusts its arguments: rowOff[0] = 0, every column
// in range, symPad readable words behind val and diag, y already zero.
//
//go:noescape
func symMulVecDotAVX2(n int, rowOff *int64, col *int32, val, diag, y, x *float64) float64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the processor has AVX2 and the operating
// system saves the ymm registers.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if lo, _ := xgetbv(); lo&(sseState|avxState) != sseState|avxState {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func init() {
	if hasAVX2() {
		symKernel = (*SymBCSR).mulVecDotAVX2
	}
}

// mulVecDotAVX2 runs the vector kernel on a matrix NewSymFromBCSR built
// and the Go one on any other, whose padding and column range nobody
// checked.
func (s *SymBCSR) mulVecDotAVX2(y, x []float64) float64 {
	if !s.folded {
		return s.mulVecDotGo(y, x)
	}
	clear(y)
	return symMulVecDotAVX2(s.N, unsafe.SliceData(s.RowOff), unsafe.SliceData(s.Col),
		unsafe.SliceData(s.Val), unsafe.SliceData(s.Diag), unsafe.SliceData(y), unsafe.SliceData(x))
}
