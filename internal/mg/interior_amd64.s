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
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	MOVQ cu+184(FP), AX
	VBROADCASTSD (AX), Y11
	VBROADCASTSD 8(AX), Y12
	VBROADCASTSD 16(AX), Y13
	VBROADCASTSD w+192(FP), Y14
	XORQ AX, AX
	MOVBQZX form+0(FP), DX
	CMPQ DX, $1
	JEQ residual
	JGT jacobi

apply:
	LAP7
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, BX
	JLE apply
	CMPQ AX, CX
	JGE done
	MOVQ BX, AX
	JMP apply

	// b − acc, b the first source.
residual:
	LAP7
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD Y0, Y2, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, BX
	JLE residual
	CMPQ AX, CX
	JGE done
	MOVQ BX, AX
	JMP residual

	// u + w·(b − acc): b − acc as above, times w with the difference the
	// first source, then the product first and u second.
jacobi:
	LAP7
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD Y0, Y2, Y0
	VMULPD Y14, Y0, Y0
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
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
