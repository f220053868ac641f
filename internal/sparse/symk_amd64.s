#include "textflag.h"

// The AVX2 form of SymBCSR's kernel. Lane k of every vector holds the
// expression mulVecDotGo writes for component k, evaluated in the same
// order with VMULPD/VADDPD only (no FMA), so the two forms agree bit for
// bit; lane 3 carries whatever the neighbouring words give and is never
// stored.
//
// A block v[0..8] (row-major) is read as three four-lane loads at words
// 0, 3, 6 — its rows r0, r1, r2, the last one reaching one word past the
// block, hence symPad — and transposed in registers for the direct
// product: VUNPCKLPD/VUNPCKHPD of r0, r1 give (v0 v3) and (v1 v4), whose
// upper halves are inserted from words 6 and 7, and one xmm VUNPCKLPD of
// words 2 and 5 gives (v2 v5), completed from word 8.
//
// Registers: AX row i, BX block index, CX n, DX scratch (3i or 3j),
// SI val cursor, DI diag cursor, R8 rowOff, R9 col cursor, R10 y, R11 x,
// R12 end of the row's blocks; Y0-Y2 x_i broadcast, Y3 the row sum a_i,
// X12 the dot.

// func symMulVecDotAVX2(n int, rowOff *int64, col *int32, val, diag, y, x *float64) float64
TEXT ·symMulVecDotAVX2(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ rowOff+8(FP), R8
	MOVQ col+16(FP), R9
	MOVQ val+24(FP), SI
	MOVQ diag+32(FP), DI
	MOVQ y+40(FP), R10
	MOVQ x+48(FP), R11
	VXORPD X12, X12, X12
	XORQ AX, AX
	XORQ BX, BX

row:
	CMPQ AX, CX
	JGE  done
	MOVQ 8(R8)(AX*8), R12
	LEAQ (AX)(AX*2), DX
	VBROADCASTSD (R11)(DX*8), Y0
	VBROADCASTSD 8(R11)(DX*8), Y1
	VBROADCASTSD 16(R11)(DX*8), Y2

	// a_i = (c0·x_i0 + c1·x_i1) + c2·x_i2, c the diagonal block's columns.
	VMOVUPD (DI), Y4
	VMOVUPD 24(DI), Y5
	VUNPCKLPD Y5, Y4, Y6
	VUNPCKHPD Y5, Y4, Y7
	VINSERTF128 $1, 48(DI), Y6, Y6
	VINSERTF128 $1, 56(DI), Y7, Y7
	VMOVUPD 16(DI), X8
	VUNPCKLPD 40(DI), X8, X8
	VINSERTF128 $1, 64(DI), Y8, Y8
	VMULPD Y0, Y6, Y6
	VMULPD Y1, Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y2, Y8, Y8
	VADDPD Y8, Y6, Y3
	ADDQ $72, DI

	CMPQ BX, R12
	JGE  rowend

block:
	MOVLQSX (R9), DX
	LEAQ (DX)(DX*2), DX
	VMOVUPD (SI), Y4
	VMOVUPD 24(SI), Y5
	VMOVUPD 48(SI), Y9

	// y_j += (r0·x_i0 + r1·x_i1) + r2·x_i2, stored as two words and one
	// so that y[3j+3] is not touched.
	VMULPD Y0, Y4, Y10
	VMULPD Y1, Y5, Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y2, Y9, Y11
	VADDPD Y11, Y10, Y10
	VEXTRACTF128 $1, Y10, X11
	VADDPD (R10)(DX*8), X10, X10
	VADDSD 16(R10)(DX*8), X11, X11
	VMOVUPD X10, (R10)(DX*8)
	VMOVSD X11, 16(R10)(DX*8)

	// a_i += (c0·x_j0 + c1·x_j1) + c2·x_j2
	VUNPCKLPD Y5, Y4, Y6
	VUNPCKHPD Y5, Y4, Y7
	VINSERTF128 $1, 48(SI), Y6, Y6
	VINSERTF128 $1, 56(SI), Y7, Y7
	VMOVUPD 16(SI), X8
	VUNPCKLPD 40(SI), X8, X8
	VINSERTF128 $1, 64(SI), Y8, Y8
	VBROADCASTSD (R11)(DX*8), Y9
	VBROADCASTSD 8(R11)(DX*8), Y10
	VBROADCASTSD 16(R11)(DX*8), Y11
	VMULPD Y9, Y6, Y6
	VMULPD Y10, Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y11, Y8, Y8
	VADDPD Y8, Y6, Y6
	VADDPD Y6, Y3, Y3

	ADDQ $72, SI
	ADDQ $4, R9
	INCQ BX
	CMPQ BX, R12
	JLT  block

rowend:
	// y_i += a_i; rows up to i are done, so y_i is final: d += x_i·y_i,
	// one product at a time.
	LEAQ (AX)(AX*2), DX
	VEXTRACTF128 $1, Y3, X4
	VADDPD (R10)(DX*8), X3, X3
	VADDSD 16(R10)(DX*8), X4, X4
	VMOVUPD X3, (R10)(DX*8)
	VMOVSD X4, 16(R10)(DX*8)
	VMULSD X3, X0, X5
	VADDSD X5, X12, X12
	VUNPCKHPD X3, X3, X5
	VMULSD X5, X1, X5
	VADDSD X5, X12, X12
	VMULSD X4, X2, X5
	VADDSD X5, X12, X12
	INCQ AX
	JMP  row

done:
	VZEROUPPER
	VMOVSD X12, ret+56(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
