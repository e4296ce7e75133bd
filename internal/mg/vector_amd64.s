//go:build amd64 && !purego

#include "textflag.h"

// The whole-vector passes of level 0 (mg.go, wave.go, kernels.go), eight cells
// a step in two YMM registers of four lanes each, then one cell a step in the
// low lane.  Each cell is one multiply and one add: the multiply takes the
// vector's value as its first source and the scale as its second, and the add
// the product as its first source, as the compiled Go loops' MULSD and ADDSD
// have them, so that where two NaNs meet the lane leaves the payload the loop
// leaves.  No FMA, no horizontal operation.
//
// Registers: DI the vector written, SI the vector multiplied, DX the vector
// added; Y15 the scale in every lane; AX the cell, CX the length, BX the last
// cell an eight-cell step may start at.

// STEP8 writes cells AX to AX+7 of DI with SI·Y15 + DX.
#define STEP8 \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD 32(SI)(AX*8), Y1; \
	VMULPD Y15, Y0, Y0; \
	VMULPD Y15, Y1, Y1; \
	VADDPD (DX)(AX*8), Y0, Y0; \
	VADDPD 32(DX)(AX*8), Y1, Y1; \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8)

// STEP1 writes cell AX of DI with SI·X15 + DX.
#define STEP1 \
	VMOVSD (SI)(AX*8), X0; \
	VMULSD X15, X0, X0; \
	VADDSD (DX)(AX*8), X0, X0; \
	VMOVSD X0, (DI)(AX*8)

// LOOP runs STEP8 while a whole step fits and STEP1 on the cells left.
#define LOOP \
	XORQ AX, AX; \
	LEAQ -8(CX), BX; \
lanes: \
	CMPQ AX, BX; \
	JGT tail; \
	STEP8; \
	ADDQ $8, AX; \
	JMP lanes; \
tail: \
	CMPQ AX, CX; \
	JGE done; \
	STEP1; \
	INCQ AX; \
	JMP tail; \
done: \
	VZEROUPPER; \
	RET

// func axpyLanes(y, x []float64, a float64)
//
// y[i] = x[i]·a + y[i] on len(y) cells: axpyCells.
TEXT ·axpyLanes(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ DI, DX
	VBROADCASTSD a+48(FP), Y15
	LOOP

// func aypxLanes(y, x []float64, a float64)
//
// y[i] = y[i]·a + x[i] on len(y) cells: aypxCells.
TEXT ·aypxLanes(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ DI, SI
	MOVQ x_base+24(FP), DX
	VBROADCASTSD a+48(FP), Y15
	LOOP

// func updateLanes(y, x, r []float64, w float64)
//
// y[i] = r[i]·w + x[i] on len(y) cells, or r[i]·w + 0 where x is nil:
// updateRun.  The zero guess adds +0 from a register.
TEXT ·updateLanes(SB), NOSPLIT, $0-80
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), DX
	MOVQ r_base+48(FP), SI
	VBROADCASTSD w+72(FP), Y15
	TESTQ DX, DX
	JEQ zero
	LOOP

zero:
	VXORPD Y14, Y14, Y14
	XORQ AX, AX
	LEAQ -8(CX), BX

zlanes:
	CMPQ AX, BX
	JGT ztail
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VADDPD Y14, Y0, Y0
	VADDPD Y14, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP zlanes

ztail:
	CMPQ AX, CX
	JGE zdone
	VMOVSD (SI)(AX*8), X0
	VMULSD X15, X0, X0
	VADDSD X14, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP ztail

zdone:
	VZEROUPPER
	RET
