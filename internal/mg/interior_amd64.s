//go:build amd64 && !purego

#include "textflag.h"

// LAP7 leaves in Y0 the A x of the four cells from index AX on and their u in
// Y1.  Each lane runs lap7's nine operations in lap7's order on one cell:
// from +0, minus i0·xm, minus i0·xp, plus t0·u, then y and z alike.  Every
// product is its own VMULPD, rounded before the add or subtract that takes
// it; no FMA, no horizontal operation.  Every subtract has the accumulator
// as its first source and every add the product, as the scalar loop's SUBSD
// and ADDSD have them: where both operands are NaN, x86 returns the first
// source's payload.
//
// Registers: R8 cr, R9 ym, R10 yp, R11 zm, R12 zp; Y8–Y10 i0–i2 and
// Y11–Y13 t0–t2 in every lane.
#define LAP7 \
	VMOVUPD 8(R8)(AX*8), Y1; \
	VXORPD Y0, Y0, Y0; \
	VMULPD (R8)(AX*8), Y8, Y2; \
	VSUBPD Y2, Y0, Y0; \
	VMULPD 16(R8)(AX*8), Y8, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD Y1, Y11, Y4; \
	VADDPD Y0, Y4, Y0; \
	VMULPD (R9)(AX*8), Y9, Y5; \
	VSUBPD Y5, Y0, Y0; \
	VMULPD (R10)(AX*8), Y9, Y6; \
	VSUBPD Y6, Y0, Y0; \
	VMULPD Y1, Y12, Y7; \
	VADDPD Y0, Y7, Y0; \
	VMULPD (R11)(AX*8), Y10, Y2; \
	VSUBPD Y2, Y0, Y0; \
	VMULPD (R12)(AX*8), Y10, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD Y1, Y13, Y4; \
	VADDPD Y0, Y4, Y0

// The three forms' stores of the four cells from index AX on, after LAP7.
// APPLY stores A x.  RESIDUAL stores b − acc, b the first source.  JACOBI
// stores u + w·(b − acc): b − acc as above, times w with the difference the
// first source, then the product first and u second.
#define APPLY \
	VMOVUPD Y0, (DI)(AX*8)

#define RESIDUAL \
	VMOVUPD (SI)(AX*8), Y2; \
	VSUBPD Y0, Y2, Y0; \
	VMOVUPD Y0, (DI)(AX*8)

#define JACOBI \
	VMOVUPD (SI)(AX*8), Y2; \
	VSUBPD Y0, Y2, Y0; \
	VMULPD Y14, Y0, Y0; \
	VADDPD Y1, Y0, Y0; \
	VMOVUPD Y0, (DI)(AX*8)

// COEFS broadcasts inv (pointer in AX) to Y8–Y10 and cu (pointer in DX) to
// Y11–Y13.
#define COEFS \
	VBROADCASTSD (AX), Y8; \
	VBROADCASTSD 8(AX), Y9; \
	VBROADCASTSD 16(AX), Y10; \
	VBROADCASTSD (DX), Y11; \
	VBROADCASTSD 8(DX), Y12; \
	VBROADCASTSD 16(DX), Y13

// func interiorLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, inv, cu *[3]float64, w float64)
//
// Every form runs one step at AX = 0, 4, … while a whole step fits, then, if
// cells are left, one more at BX = len(y) − 4, which stores again up to three
// cells with the bits they have; after it AX is len(y).
TEXT ·interiorLanes(SB), NOSPLIT, $0-200
	MOVQ y_base+8(FP), DI
	MOVQ y_len+16(FP), CX
	LEAQ -4(CX), BX
	MOVQ b_base+32(FP), SI
	MOVQ cr_base+56(FP), R8
	MOVQ ym_base+80(FP), R9
	MOVQ yp_base+104(FP), R10
	MOVQ zm_base+128(FP), R11
	MOVQ zp_base+152(FP), R12
	MOVQ inv+176(FP), AX
	MOVQ cu+184(FP), DX
	COEFS
	VBROADCASTSD w+192(FP), Y14
	XORQ AX, AX
	MOVBQZX form+0(FP), DX
	CMPQ DX, $1
	JEQ residual
	JGT jacobi

apply:
	LAP7
	APPLY
	ADDQ $4, AX
	CMPQ AX, BX
	JLE apply
	CMPQ AX, CX
	JGE done
	MOVQ BX, AX
	JMP apply

residual:
	LAP7
	RESIDUAL
	ADDQ $4, AX
	CMPQ AX, BX
	JLE residual
	CMPQ AX, CX
	JGE done
	MOVQ BX, AX
	JMP residual

jacobi:
	LAP7
	JACOBI
	ADDQ $4, AX
	CMPQ AX, BX
	JLE jacobi
	CMPQ AX, CX
	JGE done
	MOVQ BX, AX
	JMP jacobi

done:
	VZEROUPPER
	RET

// The plane entry's planeRows at R13: m at 0, rows at 8, the strides of y,
// b, cr, ym, yp, zm and zp from 16 on, the west and the east end cell's
// class coefficients at 72 and 96, their ω/diag at 120 and 128.

// NEXTROW moves each source from its row to the next by its stride, in
// values, with DX as scratch.
#define NEXTROW \
	MOVQ 16(R13), DX; \
	LEAQ (DI)(DX*8), DI; \
	MOVQ 24(R13), DX; \
	LEAQ (SI)(DX*8), SI; \
	MOVQ 32(R13), DX; \
	LEAQ (R8)(DX*8), R8; \
	MOVQ 40(R13), DX; \
	LEAQ (R9)(DX*8), R9; \
	MOVQ 48(R13), DX; \
	LEAQ (R10)(DX*8), R10; \
	MOVQ 56(R13), DX; \
	LEAQ (R11)(DX*8), R11; \
	MOVQ 64(R13), DX; \
	LEAQ (R12)(DX*8), R12

// INNER and OUTER move y, b and the four neighbour rows from the row's first
// cell to its first inner cell, where LAP7 takes them, and back; cr stays at
// the first cell, the first inner cell's west neighbour.
#define INNER \
	ADDQ $8, DI; \
	ADDQ $8, SI; \
	ADDQ $8, R9; \
	ADDQ $8, R10; \
	ADDQ $8, R11; \
	ADDQ $8, R12

#define OUTER \
	SUBQ $8, DI; \
	SUBQ $8, SI; \
	SUBQ $8, R9; \
	SUBQ $8, R10; \
	SUBQ $8, R11; \
	SUBQ $8, R12

// ENDW leaves in X0 the A x of the row's first cell, whose west neighbour is
// a domain face's +0, and its u in X1; ENDE the same of its last cell, index
// m+1 (CX = m), whose east neighbour is.  Each is LAP7 in one scalar lane:
// lap7's nine operations in its order with the same operand order, the
// product i0·(+0) formed as the Go loop forms it, and the class's
// coefficients read from planeRows (a multiply's coefficient is never NaN,
// so which source it is cannot show).
#define ENDW \
	VMOVSD (R8), X1; \
	VXORPD X0, X0, X0; \
	VMULSD X0, X8, X2; \
	VSUBSD X2, X0, X0; \
	VMULSD 8(R8), X8, X3; \
	VSUBSD X3, X0, X0; \
	VMULSD 72(R13), X1, X4; \
	VADDSD X0, X4, X0; \
	VMULSD (R9), X9, X5; \
	VSUBSD X5, X0, X0; \
	VMULSD (R10), X9, X6; \
	VSUBSD X6, X0, X0; \
	VMULSD 80(R13), X1, X7; \
	VADDSD X0, X7, X0; \
	VMULSD (R11), X10, X2; \
	VSUBSD X2, X0, X0; \
	VMULSD (R12), X10, X3; \
	VSUBSD X3, X0, X0; \
	VMULSD 88(R13), X1, X4; \
	VADDSD X0, X4, X0

#define ENDE \
	VMOVSD 8(R8)(CX*8), X1; \
	VXORPD X0, X0, X0; \
	VMULSD (R8)(CX*8), X8, X2; \
	VSUBSD X2, X0, X0; \
	VXORPD X3, X3, X3; \
	VMULSD X3, X8, X3; \
	VSUBSD X3, X0, X0; \
	VMULSD 96(R13), X1, X4; \
	VADDSD X0, X4, X0; \
	VMULSD 8(R9)(CX*8), X9, X5; \
	VSUBSD X5, X0, X0; \
	VMULSD 8(R10)(CX*8), X9, X6; \
	VSUBSD X6, X0, X0; \
	VMULSD 104(R13), X1, X7; \
	VADDSD X0, X7, X0; \
	VMULSD 8(R11)(CX*8), X10, X2; \
	VSUBSD X2, X0, X0; \
	VMULSD 8(R12)(CX*8), X10, X3; \
	VSUBSD X3, X0, X0; \
	VMULSD 112(R13), X1, X4; \
	VADDSD X0, X4, X0

// The three forms' stores of an end cell, after ENDW (W…) or ENDE (E…),
// with the end class's ω/diag for w, in the operand order of the compiled
// endCell: RESIDUAL's, and JACOBI's but for its last add, which has u first
// where the inner cells' loop has the product first (the compiler's choice
// in either function; TestPlaneLanesBitwise pins both).
#define WRESIDUAL \
	VMOVSD (SI), X2; \
	VSUBSD X0, X2, X0; \
	VMOVSD X0, (DI)

#define WJACOBI \
	VMOVSD (SI), X2; \
	VSUBSD X0, X2, X0; \
	VMULSD 120(R13), X0, X0; \
	VADDSD X0, X1, X0; \
	VMOVSD X0, (DI)

#define ERESIDUAL \
	VMOVSD 8(SI)(CX*8), X2; \
	VSUBSD X0, X2, X0; \
	VMOVSD X0, 8(DI)(CX*8)

#define EJACOBI \
	VMOVSD 8(SI)(CX*8), X2; \
	VSUBSD X0, X2, X0; \
	VMULSD 128(R13), X0, X0; \
	VADDSD X0, X1, X0; \
	VMOVSD X0, 8(DI)(CX*8)

// func planeLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, pr *planeRows, inv, cu *[3]float64, w float64)
//
// Each of pr.rows rows in turn: its two end cells (ENDW, ENDE), then
// interiorLanes' loop on its m inner cells between INNER and OUTER, then
// NEXTROW; R14 counts the rows left.
TEXT ·planeLanes(SB), NOSPLIT, $0-208
	MOVQ y_base+8(FP), DI
	MOVQ b_base+32(FP), SI
	MOVQ cr_base+56(FP), R8
	MOVQ ym_base+80(FP), R9
	MOVQ yp_base+104(FP), R10
	MOVQ zm_base+128(FP), R11
	MOVQ zp_base+152(FP), R12
	MOVQ pr+176(FP), R13
	MOVQ (R13), CX
	LEAQ -4(CX), BX
	MOVQ 8(R13), R14
	MOVQ inv+184(FP), AX
	MOVQ cu+192(FP), DX
	COEFS
	VBROADCASTSD w+200(FP), Y14
	TESTQ R14, R14
	JLE pdone
	MOVBQZX form+0(FP), DX
	CMPQ DX, $1
	JEQ presidual
	JGT pjacobi

papply:
	ENDW
	VMOVSD X0, (DI)
	ENDE
	VMOVSD X0, 8(DI)(CX*8)
	INNER
	XORQ AX, AX
papplystep:
	LAP7
	APPLY
	ADDQ $4, AX
	CMPQ AX, BX
	JLE papplystep
	CMPQ AX, CX
	JGE papplyrow
	MOVQ BX, AX
	JMP papplystep
papplyrow:
	OUTER
	NEXTROW
	DECQ R14
	JNZ papply
	JMP pdone

presidual:
	ENDW
	WRESIDUAL
	ENDE
	ERESIDUAL
	INNER
	XORQ AX, AX
presidualstep:
	LAP7
	RESIDUAL
	ADDQ $4, AX
	CMPQ AX, BX
	JLE presidualstep
	CMPQ AX, CX
	JGE presidualrow
	MOVQ BX, AX
	JMP presidualstep
presidualrow:
	OUTER
	NEXTROW
	DECQ R14
	JNZ presidual
	JMP pdone

pjacobi:
	ENDW
	WJACOBI
	ENDE
	EJACOBI
	INNER
	XORQ AX, AX
pjacobistep:
	LAP7
	JACOBI
	ADDQ $4, AX
	CMPQ AX, BX
	JLE pjacobistep
	CMPQ AX, CX
	JGE pjacobirow
	MOVQ BX, AX
	JMP pjacobistep
pjacobirow:
	OUTER
	NEXTROW
	DECQ R14
	JNZ pjacobi

pdone:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1: OSXSAVE (ECX bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7, subleaf 0: AVX2 (EBX bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET
