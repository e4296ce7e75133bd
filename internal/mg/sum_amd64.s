//go:build amd64 && !purego

#include "textflag.h"

// The two passes of an order-free sum's fast chunk (sum.go), eight products a
// step in two YMM registers of four lanes each.  Every product is one VMULPD,
// rounded as Go rounds float64(a[i]*b[i]).

// func maxLanes(a, b []float64) float64
//
// The largest |a[i]·b[i]| over len(a) terms, a multiple of eight and at least
// eight.  A NaN product may or may not survive: a chunk with one fails the
// folds' error check and runs again through chunkGo.
TEXT ·maxLanes(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ $1, Y15, Y15 // every bit but the sign
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

maxloop:
	VMOVUPD (SI)(AX*8), Y2
	VMULPD (DI)(AX*8), Y2, Y2
	VANDPD Y15, Y2, Y2
	VMAXPD Y2, Y0, Y0
	VMOVUPD 32(SI)(AX*8), Y3
	VMULPD 32(DI)(AX*8), Y3, Y3
	VANDPD Y15, Y3, Y3
	VMAXPD Y3, Y1, Y1
	ADDQ $8, AX
	CMPQ AX, CX
	JLT maxloop

	VMAXPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VMAXPD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET

// FOLD is one FastTwoSum of accumulator S and term T: X = S + T, Q = X − S,
// S = X, T = T − Q, the error the fold leaves for the next.
#define FOLD(S, T, X, Q) \
	VADDPD T, S, X; \
	VSUBPD S, X, Q; \
	VMOVAPD X, S; \
	VSUBPD Q, T, T

// HSUB leaves in the low lane of X8 the sum of the lanes of A and B, less
// the anchor SIG in each: the fold's change, exact (sum.go).  It writes Y8
// and Y9 only.
#define HSUB(A, B, SIG) \
	VSUBPD SIG, A, A; \
	VSUBPD SIG, B, B; \
	VADDPD B, A, Y8; \
	VEXTRACTF128 $1, Y8, X9; \
	VADDPD X9, X8, X8; \
	VPERMILPD $1, X8, X9; \
	VADDPD X9, X8, X8

// func foldLanes(a, b []float64, sig *[3]float64, out *[4]float64)
//
// The three folds over len(a) products, a multiple of eight and at least
// eight, each lane its own accumulators from the anchors sig: out holds each
// fold's change, summed over the lanes, and the OR of the bits of every
// third-fold error.
//
// Registers: Y0–Y5 the accumulators of folds 1 to 3, two each; Y6 the error
// bits; Y7 and Y10 the terms; Y8, Y9, Y11 and Y15 scratch; Y12–Y14 the
// anchors.
TEXT ·foldLanes(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVQ sig+48(FP), DX
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VMOVAPD Y12, Y0
	VMOVAPD Y12, Y1
	VMOVAPD Y13, Y2
	VMOVAPD Y13, Y3
	VMOVAPD Y14, Y4
	VMOVAPD Y14, Y5
	VXORPD Y6, Y6, Y6
	XORQ AX, AX

foldloop:
	VMOVUPD (SI)(AX*8), Y7
	VMULPD (DI)(AX*8), Y7, Y7
	VMOVUPD 32(SI)(AX*8), Y10
	VMULPD 32(DI)(AX*8), Y10, Y10
	FOLD(Y0, Y7, Y8, Y9)
	FOLD(Y1, Y10, Y11, Y15)
	FOLD(Y2, Y7, Y8, Y9)
	FOLD(Y3, Y10, Y11, Y15)
	FOLD(Y4, Y7, Y8, Y9)
	FOLD(Y5, Y10, Y11, Y15)
	VORPD Y7, Y6, Y6
	VORPD Y10, Y6, Y6
	ADDQ $8, AX
	CMPQ AX, CX
	JLT foldloop

	MOVQ out+56(FP), DX
	VEXTRACTF128 $1, Y6, X7
	VORPD X7, X6, X6
	VPERMILPD $1, X6, X7
	VORPD X7, X6, X6
	MOVSD X6, 24(DX)
	HSUB(Y0, Y1, Y12)
	MOVSD X8, (DX)
	HSUB(Y2, Y3, Y13)
	MOVSD X8, 8(DX)
	HSUB(Y4, Y5, Y14)
	MOVSD X8, 16(DX)
	VZEROUPPER
	RET
