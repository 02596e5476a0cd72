//go:build !purego

#include "textflag.h"

// AVX2 state-parallel float32 turbo SISO (see turbo_f32_asm.go).
//
// One YMM register holds the eight trellis-state metrics of one code block
// (lane s = state s). Per step, the branch metrics are formed lane-wise as
// (h XOR hsign) + (p XOR psign) from broadcast h = (ls+la)*0.5 and
// p = lp*0.5 — bit for bit the scalar kernel's g0 = h+p, g1 = h-p,
// g2 = -h+p, g3 = -h-p — and the recursion is two VPERMPS over fixed index
// vectors, two VADDPS and one VMAXPS. Go's VMAXPS B, A, D computes
// D = A > B ? A : B, so VMAXPS m0, m1, dst is the scalar `if m1 > m0`.

#define SIGN $0x80000000

// Forward predecessor tables: lane ns reads state f32Pred0[ns] with branch
// metric sign pattern (f32HS0, f32PS0) and state f32Pred1[ns] with the
// complementary pattern (f32HS1, f32PS1).
DATA f32Pred0<>+0(SB)/4, $0
DATA f32Pred0<>+4(SB)/4, $2
DATA f32Pred0<>+8(SB)/4, $4
DATA f32Pred0<>+12(SB)/4, $6
DATA f32Pred0<>+16(SB)/4, $0
DATA f32Pred0<>+20(SB)/4, $2
DATA f32Pred0<>+24(SB)/4, $4
DATA f32Pred0<>+28(SB)/4, $6
GLOBL f32Pred0<>(SB), RODATA|NOPTR, $32

DATA f32Pred1<>+0(SB)/4, $1
DATA f32Pred1<>+4(SB)/4, $3
DATA f32Pred1<>+8(SB)/4, $5
DATA f32Pred1<>+12(SB)/4, $7
DATA f32Pred1<>+16(SB)/4, $1
DATA f32Pred1<>+20(SB)/4, $3
DATA f32Pred1<>+24(SB)/4, $5
DATA f32Pred1<>+28(SB)/4, $7
GLOBL f32Pred1<>(SB), RODATA|NOPTR, $32

// Backward successor tables: nextD0 and nextD1 of the trellis.
DATA f32Next0<>+0(SB)/4, $0
DATA f32Next0<>+4(SB)/4, $4
DATA f32Next0<>+8(SB)/4, $5
DATA f32Next0<>+12(SB)/4, $1
DATA f32Next0<>+16(SB)/4, $2
DATA f32Next0<>+20(SB)/4, $6
DATA f32Next0<>+24(SB)/4, $7
DATA f32Next0<>+28(SB)/4, $3
GLOBL f32Next0<>(SB), RODATA|NOPTR, $32

DATA f32Next1<>+0(SB)/4, $4
DATA f32Next1<>+4(SB)/4, $0
DATA f32Next1<>+8(SB)/4, $1
DATA f32Next1<>+12(SB)/4, $5
DATA f32Next1<>+16(SB)/4, $6
DATA f32Next1<>+20(SB)/4, $2
DATA f32Next1<>+24(SB)/4, $3
DATA f32Next1<>+28(SB)/4, $7
GLOBL f32Next1<>(SB), RODATA|NOPTR, $32

// Forward h signs of the first predecessor branch: g0 g2 g1 g3 g3 g1 g2 g0.
DATA f32HS0<>+0(SB)/4, $0
DATA f32HS0<>+4(SB)/4, SIGN
DATA f32HS0<>+8(SB)/4, $0
DATA f32HS0<>+12(SB)/4, SIGN
DATA f32HS0<>+16(SB)/4, SIGN
DATA f32HS0<>+20(SB)/4, $0
DATA f32HS0<>+24(SB)/4, SIGN
DATA f32HS0<>+28(SB)/4, $0
GLOBL f32HS0<>(SB), RODATA|NOPTR, $32

// Forward h signs of the second predecessor branch: g3 g1 g2 g0 g0 g2 g1 g3.
DATA f32HS1<>+0(SB)/4, SIGN
DATA f32HS1<>+4(SB)/4, $0
DATA f32HS1<>+8(SB)/4, SIGN
DATA f32HS1<>+12(SB)/4, $0
DATA f32HS1<>+16(SB)/4, $0
DATA f32HS1<>+20(SB)/4, SIGN
DATA f32HS1<>+24(SB)/4, $0
DATA f32HS1<>+28(SB)/4, SIGN
GLOBL f32HS1<>(SB), RODATA|NOPTR, $32

// p signs g0/g1 patterns: the forward first branch and the backward d=0
// branch (gammaIdx0 = 0 0 1 1 1 1 0 0) share one pattern, the forward
// second branch and the backward d=1 branch (gammaIdx1 = 3 3 2 2 2 2 3 3)
// its complement.
DATA f32PS0<>+0(SB)/4, $0
DATA f32PS0<>+4(SB)/4, $0
DATA f32PS0<>+8(SB)/4, SIGN
DATA f32PS0<>+12(SB)/4, SIGN
DATA f32PS0<>+16(SB)/4, SIGN
DATA f32PS0<>+20(SB)/4, SIGN
DATA f32PS0<>+24(SB)/4, $0
DATA f32PS0<>+28(SB)/4, $0
GLOBL f32PS0<>(SB), RODATA|NOPTR, $32

DATA f32PS1<>+0(SB)/4, SIGN
DATA f32PS1<>+4(SB)/4, SIGN
DATA f32PS1<>+8(SB)/4, $0
DATA f32PS1<>+12(SB)/4, $0
DATA f32PS1<>+16(SB)/4, $0
DATA f32PS1<>+20(SB)/4, $0
DATA f32PS1<>+24(SB)/4, SIGN
DATA f32PS1<>+28(SB)/4, SIGN
GLOBL f32PS1<>(SB), RODATA|NOPTR, $32

// All-lanes sign: the backward d=1 branches all negate h.
DATA f32SignAll<>+0(SB)/4, SIGN
DATA f32SignAll<>+4(SB)/4, SIGN
DATA f32SignAll<>+8(SB)/4, SIGN
DATA f32SignAll<>+12(SB)/4, SIGN
DATA f32SignAll<>+16(SB)/4, SIGN
DATA f32SignAll<>+20(SB)/4, SIGN
DATA f32SignAll<>+24(SB)/4, SIGN
DATA f32SignAll<>+28(SB)/4, SIGN
GLOBL f32SignAll<>(SB), RODATA|NOPTR, $32

// 0.5 (0x3f000000) in every lane.
DATA f32Half<>+0(SB)/4, $0x3f000000
DATA f32Half<>+4(SB)/4, $0x3f000000
DATA f32Half<>+8(SB)/4, $0x3f000000
DATA f32Half<>+12(SB)/4, $0x3f000000
DATA f32Half<>+16(SB)/4, $0x3f000000
DATA f32Half<>+20(SB)/4, $0x3f000000
DATA f32Half<>+24(SB)/4, $0x3f000000
DATA f32Half<>+28(SB)/4, $0x3f000000
GLOBL f32Half<>(SB), RODATA|NOPTR, $32

// negInf = float32(-1e30) (0xf149f2ca) in every lane: the extrinsic maxima
// start from it, as the scalar scans do.
DATA f32NegInf<>+0(SB)/4, $0xf149f2ca
DATA f32NegInf<>+4(SB)/4, $0xf149f2ca
DATA f32NegInf<>+8(SB)/4, $0xf149f2ca
DATA f32NegInf<>+12(SB)/4, $0xf149f2ca
DATA f32NegInf<>+16(SB)/4, $0xf149f2ca
DATA f32NegInf<>+20(SB)/4, $0xf149f2ca
DATA f32NegInf<>+24(SB)/4, $0xf149f2ca
DATA f32NegInf<>+28(SB)/4, $0xf149f2ca
GLOBL f32NegInf<>(SB), RODATA|NOPTR, $32

// alpha[0] = {0, negInf x 7}: the encoder starts in state 0.
DATA f32Alpha0<>+0(SB)/4, $0
DATA f32Alpha0<>+4(SB)/4, $0xf149f2ca
DATA f32Alpha0<>+8(SB)/4, $0xf149f2ca
DATA f32Alpha0<>+12(SB)/4, $0xf149f2ca
DATA f32Alpha0<>+16(SB)/4, $0xf149f2ca
DATA f32Alpha0<>+20(SB)/4, $0xf149f2ca
DATA f32Alpha0<>+24(SB)/4, $0xf149f2ca
DATA f32Alpha0<>+28(SB)/4, $0xf149f2ca
GLOBL f32Alpha0<>(SB), RODATA|NOPTR, $32

// func forwardF32AVX2(ls, lp, la, alpha *float32, k int)
//
// Y0 = alpha entering step t. Y9 = 0.5, Y10/Y11 = predecessor indices,
// Y12..Y15 = branch sign patterns.
TEXT ·forwardF32AVX2(SB), NOSPLIT, $0-40
	MOVQ	ls+0(FP), SI
	MOVQ	lp+8(FP), DX
	MOVQ	la+16(FP), BX
	MOVQ	alpha+24(FP), DI
	MOVQ	k+32(FP), CX

	VMOVUPS	f32Alpha0<>(SB), Y0
	VMOVUPS	f32Half<>(SB), Y9
	VMOVUPS	f32Pred0<>(SB), Y10
	VMOVUPS	f32Pred1<>(SB), Y11
	VMOVUPS	f32HS0<>(SB), Y12
	VMOVUPS	f32PS0<>(SB), Y13
	VMOVUPS	f32HS1<>(SB), Y14
	VMOVUPS	f32PS1<>(SB), Y15
	XORQ	R9, R9

fwdloop:
	VMOVUPS	Y0, (DI)

	// h = (ls+la)*0.5 and p = lp*0.5, broadcast to all lanes.
	VBROADCASTSS	(SI)(R9*4), Y1
	VBROADCASTSS	(BX)(R9*4), Y2
	VADDPS	Y2, Y1, Y1
	VMULPS	Y9, Y1, Y1
	VBROADCASTSS	(DX)(R9*4), Y2
	VMULPS	Y9, Y2, Y2

	// Branch metrics per destination lane for each predecessor.
	VXORPS	Y12, Y1, Y3
	VXORPS	Y13, Y2, Y4
	VADDPS	Y4, Y3, Y3
	VXORPS	Y14, Y1, Y5
	VXORPS	Y15, Y2, Y6
	VADDPS	Y6, Y5, Y5

	// n = max(alpha[pred0] + gamma0, alpha[pred1] + gamma1), first on tie.
	VPERMPS	Y0, Y10, Y7
	VPERMPS	Y0, Y11, Y8
	VADDPS	Y3, Y7, Y7
	VADDPS	Y5, Y8, Y8
	VMAXPS	Y7, Y8, Y0

	ADDQ	$32, DI
	INCQ	R9
	CMPQ	R9, CX
	JLT	fwdloop

	VZEROUPPER
	RET

// func backwardF32AVX2(ls, lp, la, ext, alpha *float32, beta *[8]float32, k int)
//
// Y0 = beta[t+1] entering step t. Y9 = 0.5, Y10/Y11 = successor indices,
// Y12 = all-sign, Y13/Y15 = p sign patterns, Y14 = negInf.
TEXT ·backwardF32AVX2(SB), NOSPLIT, $0-56
	MOVQ	ls+0(FP), SI
	MOVQ	lp+8(FP), DX
	MOVQ	la+16(FP), BX
	MOVQ	ext+24(FP), R8
	MOVQ	alpha+32(FP), DI
	MOVQ	beta+40(FP), AX
	MOVQ	k+48(FP), CX

	VMOVUPS	(AX), Y0
	VMOVUPS	f32Half<>(SB), Y9
	VMOVUPS	f32Next0<>(SB), Y10
	VMOVUPS	f32Next1<>(SB), Y11
	VMOVUPS	f32SignAll<>(SB), Y12
	VMOVUPS	f32PS0<>(SB), Y13
	VMOVUPS	f32NegInf<>(SB), Y14
	VMOVUPS	f32PS1<>(SB), Y15

	MOVQ	CX, R9
	DECQ	R9		// t = k-1
	MOVQ	R9, R10
	SHLQ	$5, R10
	ADDQ	R10, DI		// alpha row t

bwdloop:
	VBROADCASTSS	(SI)(R9*4), Y1
	VBROADCASTSS	(BX)(R9*4), Y2
	VADDPS	Y2, Y1, Y1
	VMULPS	Y9, Y1, Y1	// h
	VBROADCASTSS	(DX)(R9*4), Y2
	VMULPS	Y9, Y2, Y2	// p

	// d=0 branch metrics per source state: h + (±p); d=1: (-h) + (±p).
	VXORPS	Y13, Y2, Y3
	VADDPS	Y3, Y1, Y3
	VXORPS	Y12, Y1, Y4
	VXORPS	Y15, Y2, Y5
	VADDPS	Y5, Y4, Y4

	// Successor metrics beta[t+1][next0/1[s]].
	VPERMPS	Y0, Y10, Y5
	VPERMPS	Y0, Y11, Y6

	// beta[t] = max(gamma0 + b[next0], gamma1 + b[next1]), first on tie.
	VADDPS	Y5, Y3, Y7
	VADDPS	Y6, Y4, Y8
	VMAXPS	Y7, Y8, Y0

	// Extrinsic: x0/x1[s] = (alpha[s] + gamma) + b[next].
	VMOVUPS	(DI), Y1
	VADDPS	Y3, Y1, Y2
	VADDPS	Y5, Y2, Y2
	VADDPS	Y4, Y1, Y3
	VADDPS	Y6, Y3, Y3

	// Tree maxima: fold x0 into the low half and x1 into the high half,
	// then across lanes; max with negInf as the scalar scans start there.
	VBLENDPS	$0xF0, Y3, Y2, Y4	// x0.lo | x1.hi
	VBLENDPS	$0xF0, Y2, Y3, Y5	// x1.lo | x0.hi
	VPERM2F128	$0x01, Y5, Y5, Y5	// x0.hi | x1.lo
	VMAXPS	Y5, Y4, Y4
	VPERMILPS	$0x4E, Y4, Y5
	VMAXPS	Y5, Y4, Y4
	VPERMILPS	$0xB1, Y4, Y5
	VMAXPS	Y5, Y4, Y4
	VMAXPS	Y14, Y4, Y4

	// ext[t] = ((m0 - m1) - ls) - la.
	VEXTRACTF128	$1, Y4, X5
	VSUBSS	X5, X4, X4
	VSUBSS	(SI)(R9*4), X4, X4
	VSUBSS	(BX)(R9*4), X4, X4
	VMOVSS	X4, (R8)(R9*4)

	SUBQ	$32, DI
	DECQ	R9
	JGE	bwdloop

	VMOVUPS	Y0, (AX)
	VZEROUPPER
	RET
