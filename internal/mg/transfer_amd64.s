//go:build amd64 && !purego

#include "textflag.h"

// The two level transfers in the lanes of YMM registers, one cell's whole sum
// per lane, in the Go loop's order, no FMA and no horizontal operation (DESIGN
// §18 "Cross-cell lanes").  Where both operands of an add are NaN, x86 returns
// the first source's payload, so every add has as its first source what the
// compiled Go loop's ADDSD has: restrictRun's the sum, interpCells8's the sum
// but in its seventh add (the product of row 3's lower cell) and the sum
// again where the result is added into xa.  A multiply's other operand is a
// weight, which is never NaN, so its order cannot show.

// IROW adds to the sums in Y0 the two terms of coarse row P for the four fine
// cells of a step: one load of coarse cells c … c+3 (BX is c), then the lower
// cells c, c, c+1, c+1 (VPERMPD $0x50) and the upper c+1, c+1, c+2, c+2
// ($0xA5), each times the row's lane weights WL and WH.
#define IROW(P, WL, WH) \
	VMOVUPD (P)(BX*8), Y1; \
	VPERMPD $0x50, Y1, Y2; \
	VPERMPD $0xA5, Y1, Y3; \
	VMULPD WL, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VMULPD WH, Y3, Y3; \
	VADDPD Y3, Y0, Y0

// func interpLanes(xa, p0, p1, p2, p3 []float64, wzy *[4]float64, wx *[2][4]float64)
TEXT ·interpLanes(SB), NOSPLIT, $0-136
	MOVQ xa_base+0(FP), DI
	MOVQ xa_len+8(FP), CX
	ANDQ $~3, CX
	MOVQ p0_base+24(FP), R8
	MOVQ p1_base+48(FP), R9
	MOVQ p2_base+72(FP), R10
	MOVQ p3_base+96(FP), R11
	MOVQ wzy+120(FP), AX
	MOVQ wx+128(FP), DX

	// Row r's lane weights, wzy[r]·wx in every lane: Y8 + 2r the lower
	// cell's, Y9 + 2r the upper's.
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VBROADCASTSD (AX), Y8
	VMULPD Y1, Y8, Y9
	VMULPD Y0, Y8, Y8
	VBROADCASTSD 8(AX), Y10
	VMULPD Y1, Y10, Y11
	VMULPD Y0, Y10, Y10
	VBROADCASTSD 16(AX), Y12
	VMULPD Y1, Y12, Y13
	VMULPD Y0, Y12, Y12
	VBROADCASTSD 24(AX), Y14
	VMULPD Y1, Y14, Y15
	VMULPD Y0, Y14, Y14

	XORQ AX, AX // the step's first fine cell
	XORQ BX, BX // and its lower coarse cell

interp:
	CMPQ AX, CX
	JGE  interpdone
	VXORPD Y0, Y0, Y0
	IROW(R8, Y8, Y9)
	IROW(R9, Y10, Y11)
	IROW(R10, Y12, Y13)

	// Row 3 as IROW, but the lower cell's product is the first source of
	// its add, as compiled.
	VMOVUPD (R11)(BX*8), Y1
	VPERMPD $0x50, Y1, Y2
	VPERMPD $0xA5, Y1, Y3
	VMULPD  Y14, Y2, Y2
	VADDPD  Y0, Y2, Y0
	VMULPD  Y15, Y3, Y3
	VADDPD  Y3, Y0, Y0

	// xa += the sums, the sums the first source.
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	ADDQ    $2, BX
	JMP     interp

interpdone:
	VZEROUPPER
	RET

// RACC adds to the four sums in ACC one fine row's terms: columns 0 … 3 of
// the cells whose first column lies OFF bytes past R12, in that order, each
// times its weight in Y4 … Y7.  The stride-2 column vectors come from two
// pairs of loads, columns 0 … 3 with 4 … 7 and 2 … 5 with 6 … 9, by VUNPCKLPD
// and VUNPCKHPD, in the lane order cells 0, 2, 1, 3 (VPERMPD $0xD8 puts the
// sums in cell order once, before the store).
#define RACC(ACC, OFF) \
	VMOVUPD OFF(R12), Y8; \
	VMOVUPD OFF+16(R12), Y9; \
	VUNPCKLPD OFF+32(R12), Y8, Y10; \
	VUNPCKHPD OFF+32(R12), Y8, Y11; \
	VUNPCKLPD OFF+48(R12), Y9, Y12; \
	VUNPCKHPD OFF+48(R12), Y9, Y13; \
	VMULPD Y4, Y10, Y10; \
	VADDPD Y10, ACC, ACC; \
	VMULPD Y5, Y11, Y11; \
	VADDPD Y11, ACC, ACC; \
	VMULPD Y6, Y12, Y12; \
	VADDPD Y12, ACC, ACC; \
	VMULPD Y7, Y13, Y13; \
	VADDPD Y13, ACC, ACC

// RSTORE stores the sums in ACC, scaled, as cells N … N+3 of the step.
#define RSTORE(ACC, N) \
	VPERMPD $0xD8, ACC, ACC; \
	VMULPD  Y15, ACC, ACC; \
	VMOVUPD ACC, N*8(DI)(AX*8)

// func restrictLanes(out []float64, src [][]float64, wx [][4]float64, scale float64)
TEXT ·restrictLanes(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	MOVQ wx_base+48(FP), R8
	VBROADCASTSD scale+72(FP), Y15
	SUBQ $16, CX // the last step's first cell
	XORQ AX, AX  // this step's

step:
	// Sixteen sums in Y0 … Y3; BX is the step's first column, in bytes.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   AX, BX
	SHLQ   $4, BX
	MOVQ   SI, R9
	MOVQ   R8, R10
	MOVQ   DX, R11

row:
	MOVQ         (R9), R12
	ADDQ         BX, R12
	VBROADCASTSD (R10), Y4
	VBROADCASTSD 8(R10), Y5
	VBROADCASTSD 16(R10), Y6
	VBROADCASTSD 24(R10), Y7
	RACC(Y0, 0)
	RACC(Y1, 64)
	RACC(Y2, 128)
	RACC(Y3, 192)
	ADDQ         $24, R9
	ADDQ         $32, R10
	DECQ         R11
	JNZ          row

	RSTORE(Y0, 0)
	RSTORE(Y1, 4)
	RSTORE(Y2, 8)
	RSTORE(Y3, 12)
	CMPQ AX, CX
	JEQ  restrictdone
	ADDQ $16, AX
	CMPQ AX, CX
	JLE  step
	MOVQ CX, AX
	JMP  step

restrictdone:
	VZEROUPPER
	RET
