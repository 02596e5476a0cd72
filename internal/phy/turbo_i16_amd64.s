//go:build !purego

#include "textflag.h"

// AVX2 state-parallel int16 turbo SISO (see turbo_siso_asm.go).
//
// A pass is two kernels. forwardI16AVX2 keeps the eight int16 state
// metrics in one XMM register: a step is two VPSHUFB over fixed predecessor
// byte tables, a VPADDW and a VPSUBW of the step's branch metrics and a
// VPMAXSW. Eight steps at a time it first derives those branch metrics
// from the input streams (off the recursion's critical path) and writes
// the backward pass's copy of them. The fused backward pass
// (backwardI16AVX2) keeps beta as eight int32 lanes of a YMM register in
// the lane order 0 2 1 3 6 4 7 5, which makes both its branch metrics and
// the extrinsic's ±lp/2 terms alternate lane by lane; a step is two
// VPERMD, a VPADDD, a VPSUBD and a VPMAXSD, and the extrinsic sums reuse
// the two permuted registers. The forward pass stores its alpha rows in
// that same lane order so the backward pass only has to widen them.
//
// Every operation is integer add, subtract or max, so the results are the
// scalar kernel's (sisoI16) exactly: forward metrics stay inside int16
// between renormalizations (turbo_i16.go), the backward and extrinsic
// arithmetic runs in int32 like the scalar int, and the forward
// renormalization's saturating VPSUBSW only differs from an exact subtract
// below -32768, which the i16MetricMin clamp maps to -20000 either way.
// Both recursions renormalize every fourth step exactly where sisoI16 does;
// the forward loop is unrolled by eight and the backward loop by four, so
// k must be a multiple of 8 (every LTE block size is).

// Forward predecessor byte tables. The broadcast branch metrics are
// g0 -g1 g1 -g0 in both halves, while the scalar first branches carry
// g0 -g1 g1 -g0 -g0 g1 -g1 g0; the upper half therefore takes its two
// predecessors in swapped roles: pred0 = 0 2 4 6 1 3 5 7 and
// pred1 = 1 3 5 7 0 2 4 6.
DATA i16Pred0<>+0(SB)/8, $0x0d0c090805040100
DATA i16Pred0<>+8(SB)/8, $0x0f0e0b0a07060302
GLOBL i16Pred0<>(SB), RODATA|NOPTR, $16

DATA i16Pred1<>+0(SB)/8, $0x0f0e0b0a07060302
DATA i16Pred1<>+8(SB)/8, $0x0d0c090805040100
GLOBL i16Pred1<>(SB), RODATA|NOPTR, $16

// Swap adjacent words (the last step of the horizontal maximum).
DATA i16SwapW<>+0(SB)/8, $0x0504070601000302
DATA i16SwapW<>+8(SB)/8, $0x0d0c0f0e09080b0a
GLOBL i16SwapW<>(SB), RODATA|NOPTR, $16

// Word shuffle into the backward lane order 0 2 1 3 6 4 7 5 (alpha rows
// are stored that way).
DATA i16OrderW<>+0(SB)/8, $0x0706030205040100
DATA i16OrderW<>+8(SB)/8, $0x0b0a0f0e09080d0c
GLOBL i16OrderW<>(SB), RODATA|NOPTR, $16

// i16MetricMin = -20000 (0xb1e0) in every word.
DATA i16Min<>+0(SB)/8, $0xb1e0b1e0b1e0b1e0
DATA i16Min<>+8(SB)/8, $0xb1e0b1e0b1e0b1e0
GLOBL i16Min<>(SB), RODATA|NOPTR, $16

// alpha[0] = {0, -20000 x 7}: the encoder starts in state 0.
DATA i16Alpha0<>+0(SB)/8, $0xb1e0b1e0b1e00000
DATA i16Alpha0<>+8(SB)/8, $0xb1e0b1e0b1e0b1e0
GLOBL i16Alpha0<>(SB), RODATA|NOPTR, $16

// Backward lane order: lane j holds state 0 2 1 3 6 4 7 5 (VPERMD index
// of a natural-order register into that order).
DATA i16Order<>+0(SB)/4, $0
DATA i16Order<>+4(SB)/4, $2
DATA i16Order<>+8(SB)/4, $1
DATA i16Order<>+12(SB)/4, $3
DATA i16Order<>+16(SB)/4, $6
DATA i16Order<>+20(SB)/4, $4
DATA i16Order<>+24(SB)/4, $7
DATA i16Order<>+28(SB)/4, $5
GLOBL i16Order<>(SB), RODATA|NOPTR, $32

// Backward successor lanes in that order: lane j reads the lane holding
// next0[state j] (0 7 5 2 6 1 3 4) and next1[state j] (5 2 0 7 3 4 6 1).
DATA i16Next0<>+0(SB)/4, $0
DATA i16Next0<>+4(SB)/4, $7
DATA i16Next0<>+8(SB)/4, $5
DATA i16Next0<>+12(SB)/4, $2
DATA i16Next0<>+16(SB)/4, $6
DATA i16Next0<>+20(SB)/4, $1
DATA i16Next0<>+24(SB)/4, $3
DATA i16Next0<>+28(SB)/4, $4
GLOBL i16Next0<>(SB), RODATA|NOPTR, $32

DATA i16Next1<>+0(SB)/4, $5
DATA i16Next1<>+4(SB)/4, $2
DATA i16Next1<>+8(SB)/4, $0
DATA i16Next1<>+12(SB)/4, $7
DATA i16Next1<>+16(SB)/4, $3
DATA i16Next1<>+20(SB)/4, $4
DATA i16Next1<>+24(SB)/4, $6
DATA i16Next1<>+28(SB)/4, $1
GLOBL i16Next1<>(SB), RODATA|NOPTR, $32

// Gathers the low words of int32 lanes 2 and 0 (ext[t-1], ext[t]).
DATA i16ExtPair<>+0(SB)/8, $0x8080808001000908
DATA i16ExtPair<>+8(SB)/8, $0x8080808080808080
GLOBL i16ExtPair<>(SB), RODATA|NOPTR, $16

// int32 -20000, +4096 and -4096 in every lane.
DATA i16Min32<>+0(SB)/8, $0xffffb1e0ffffb1e0
DATA i16Min32<>+8(SB)/8, $0xffffb1e0ffffb1e0
DATA i16Min32<>+16(SB)/8, $0xffffb1e0ffffb1e0
DATA i16Min32<>+24(SB)/8, $0xffffb1e0ffffb1e0
GLOBL i16Min32<>(SB), RODATA|NOPTR, $32

DATA i16ExtHi<>+0(SB)/8, $0x0000100000001000
DATA i16ExtHi<>+8(SB)/8, $0x0000100000001000
GLOBL i16ExtHi<>(SB), RODATA|NOPTR, $16

DATA i16ExtLo<>+0(SB)/8, $0xfffff000fffff000
DATA i16ExtLo<>+8(SB)/8, $0xfffff000fffff000
GLOBL i16ExtLo<>(SB), RODATA|NOPTR, $16

// FWD_STEP stores the metrics entering the step (in the backward lane
// order), then advances X0 by one step with the branch metrics g0 -g1 g1
// -g0 broadcast from the qword of gq selected by imm: n = max(a[pred0] +
// g, a[pred1] - g).
#define FWD_STEP(imm, gq, row) \
	VPSHUFB	X12, X0, X1; \
	VMOVDQU	X1, row(DI); \
	VPSHUFD	imm, gq, X1; \
	VPSHUFB	X10, X0, X2; \
	VPSHUFB	X11, X0, X3; \
	VPADDW	X1, X2, X2; \
	VPSUBW	X1, X3, X3; \
	VPMAXSW	X3, X2, X0

// RENORM subtracts the maximum of X0's eight words from each (saturating)
// and clamps at i16MetricMin.
#define RENORM \
	VPSHUFD	$0x4e, X0, X2; \
	VPMAXSW	X2, X0, X2; \
	VPSHUFD	$0xb1, X2, X3; \
	VPMAXSW	X3, X2, X2; \
	VPSHUFB	X15, X2, X3; \
	VPMAXSW	X3, X2, X2; \
	VPSUBSW	X2, X0, X0; \
	VPMAXSW	X14, X0, X0

// func forwardI16AVX2(ls, lp, la, alpha *int16, gb *int32, k int)
//
// X0 = alpha entering step t; X10/X11 = predecessor tables, X12 = lane
// order, X14 = i16MetricMin, X15 = word swap. Each iteration first derives
// the branch metrics of its eight steps, with h = ls+la, p = lp,
// g0 = (h+p)>>1, g1 = (h-p)>>1 and p2 = p>>1: the forward qwords
// g0 -g1 g1 -g0 stay in X5-X8 (two steps each), and gb[4t:4t+4] =
// g0 g1 p2 -p2 (int32) is written for the backward pass.
TEXT ·forwardI16AVX2(SB), NOSPLIT, $0-48
	MOVQ	ls+0(FP), SI
	MOVQ	lp+8(FP), DX
	MOVQ	la+16(FP), BX
	MOVQ	alpha+24(FP), DI
	MOVQ	gb+32(FP), R8
	MOVQ	k+40(FP), CX

	VMOVDQU	i16Alpha0<>(SB), X0
	VMOVDQU	i16Pred0<>(SB), X10
	VMOVDQU	i16Pred1<>(SB), X11
	VMOVDQU	i16OrderW<>(SB), X12
	VMOVDQU	i16Min<>(SB), X14
	VMOVDQU	i16SwapW<>(SB), X15

fwdloop:
	VMOVDQU	(SI), X4
	VPADDW	(BX), X4, X4		// h
	VMOVDQU	(DX), X5		// p
	VPADDW	X5, X4, X6
	VPSRAW	$1, X6, X6		// g0
	VPSUBW	X5, X4, X7
	VPSRAW	$1, X7, X7		// g1
	VPSRAW	$1, X5, X5		// p2

	// Backward stream: int32 g0 g1 p2 -p2 per step. Each 128-bit lane of
	// the widened vectors holds four steps (0-3 low, 4-7 high).
	VPMOVSXWD	X6, Y4
	VPMOVSXWD	X7, Y8
	VPUNPCKLDQ	Y8, Y4, Y9	// g0 g1: steps 0,1 | 4,5
	VPUNPCKHDQ	Y8, Y4, Y4	// steps 2,3 | 6,7
	VPMOVSXWD	X5, Y8
	VPXOR	Y13, Y13, Y13
	VPSUBD	Y8, Y13, Y13		// -p2
	VPUNPCKLDQ	Y13, Y8, Y1	// p2 -p2: steps 0,1 | 4,5
	VPUNPCKHDQ	Y13, Y8, Y2	// steps 2,3 | 6,7
	VPUNPCKLQDQ	Y1, Y9, Y3	// step 0 | 4
	VMOVDQU	X3, (R8)
	VEXTRACTI128	$1, Y3, 64(R8)
	VPUNPCKHQDQ	Y1, Y9, Y3	// step 1 | 5
	VMOVDQU	X3, 16(R8)
	VEXTRACTI128	$1, Y3, 80(R8)
	VPUNPCKLQDQ	Y2, Y4, Y3	// step 2 | 6
	VMOVDQU	X3, 32(R8)
	VEXTRACTI128	$1, Y3, 96(R8)
	VPUNPCKHQDQ	Y2, Y4, Y3	// step 3 | 7
	VMOVDQU	X3, 48(R8)
	VEXTRACTI128	$1, Y3, 112(R8)

	// Forward qwords g0 -g1 g1 -g0, two steps per register.
	VPXOR	X4, X4, X4
	VPSUBW	X6, X4, X8		// -g0
	VPSUBW	X7, X4, X9		// -g1
	VPUNPCKLWD	X9, X6, X1	// g0 -g1, steps 0-3
	VPUNPCKHWD	X9, X6, X2	// steps 4-7
	VPUNPCKLWD	X8, X7, X3	// g1 -g0, steps 0-3
	VPUNPCKHWD	X8, X7, X4	// steps 4-7
	VPUNPCKLDQ	X3, X1, X5	// steps 0,1
	VPUNPCKHDQ	X3, X1, X6	// steps 2,3
	VPUNPCKLDQ	X4, X2, X7	// steps 4,5
	VPUNPCKHDQ	X4, X2, X8	// steps 6,7

	FWD_STEP($0x44, X5, 0)
	FWD_STEP($0xee, X5, 16)
	FWD_STEP($0x44, X6, 32)
	FWD_STEP($0xee, X6, 48)
	RENORM
	FWD_STEP($0x44, X7, 64)
	FWD_STEP($0xee, X7, 80)
	FWD_STEP($0x44, X8, 96)
	FWD_STEP($0xee, X8, 112)
	RENORM

	ADDQ	$16, SI
	ADDQ	$16, DX
	ADDQ	$16, BX
	ADDQ	$128, DI
	ADDQ	$128, R8
	SUBQ	$8, CX
	JGT	fwdloop

	VZEROUPPER
	RET

// BWD_HALF advances beta (Y0) over the step whose branch metrics and
// alpha row sit at off(R9) and off(DI): beta[t] = max(g + b[next0],
// b[next1] - g). It leaves in dst the extrinsic branch maxima folded to
// four lanes, x0 = alpha ± p2 + b[next0] in the low half and
// x1 = alpha ∓ p2 + b[next1] in the high half; clobbers Y1-Y6 and Y8.
#define BWD_HALF(off, dst) \
	VPBROADCASTQ	off(R9), Y1; \
	VPERMD	Y0, Y10, Y2; \
	VPERMD	Y0, Y11, Y3; \
	VPADDD	Y1, Y2, Y4; \
	VPSUBD	Y1, Y3, Y5; \
	VPMAXSD	Y5, Y4, Y0; \
	VPMOVSXWD	off(DI), Y6; \
	VPBROADCASTQ	off+8(R9), Y4; \
	VPADDD	Y4, Y6, Y5; \
	VPADDD	Y2, Y5, Y5; \
	VPSUBD	Y4, Y6, Y6; \
	VPADDD	Y3, Y6, Y6; \
	VPBLENDD	$0xf0, Y6, Y5, dst; \
	VPBLENDD	$0xf0, Y5, Y6, Y8; \
	VPERM2I128	$0x01, Y8, Y8, Y8; \
	VPMAXSD	Y8, dst, dst

// BWD_PAIR runs the steps at off+16 (t) and off (t-1), then finishes both
// extrinsics at once: the folded maxima of the two steps are reduced
// together to max x0 - max x1 per step, clamped to ±i16ExtSat, and stored
// as the two int16 ext[t-1], ext[t] at off/8(R8).
#define BWD_PAIR(off, extoff) \
	BWD_HALF(off+16, Y7); \
	BWD_HALF(off, Y9); \
	VPUNPCKLQDQ	Y9, Y7, Y8; \
	VPUNPCKHQDQ	Y9, Y7, Y7; \
	VPMAXSD	Y8, Y7, Y7; \
	VPSHUFD	$0xb1, Y7, Y8; \
	VPMAXSD	Y8, Y7, Y7; \
	VEXTRACTI128	$1, Y7, X8; \
	VPSUBD	X8, X7, X7; \
	VPMINSD	X14, X7, X7; \
	VPMAXSD	X15, X7, X7; \
	VPSHUFB	X12, X7, X7; \
	VMOVD	X7, extoff(R8)

// func backwardI16AVX2(gb *int32, ext, alpha *int16, beta *[8]int16, k int)
//
// gb and alpha are what forwardI16AVX2 wrote; beta is in natural state
// order. Y0 = beta[t+1] entering step t, in the backward lane order;
// Y10/Y11 = successor lanes, Y13 = i16MetricMin, X14/X15 = ±i16ExtSat,
// X12 = the ext pair gather. The steps run t = k-1 down to 0, four per
// iteration, with R9/DI/R8 pointing at step t-3's metrics, alpha row and
// ext slot.
TEXT ·backwardI16AVX2(SB), NOSPLIT, $0-40
	MOVQ	gb+0(FP), R9
	MOVQ	ext+8(FP), R8
	MOVQ	alpha+16(FP), DI
	MOVQ	beta+24(FP), R10
	MOVQ	k+32(FP), CX

	VMOVDQU	i16Order<>(SB), Y12
	VPMOVSXWD	(R10), Y0
	VPERMD	Y0, Y12, Y0
	VMOVDQU	i16Next0<>(SB), Y10
	VMOVDQU	i16Next1<>(SB), Y11
	VMOVDQU	i16Min32<>(SB), Y13
	VMOVDQU	i16ExtHi<>(SB), X14
	VMOVDQU	i16ExtLo<>(SB), X15
	VMOVDQU	i16ExtPair<>(SB), X12

	LEAQ	-4(CX), AX
	MOVQ	AX, BX
	SHLQ	$4, BX
	ADDQ	BX, R9		// gb step k-4
	ADDQ	BX, DI		// alpha row k-4
	SHLQ	$1, AX
	ADDQ	AX, R8		// ext[k-4]

bwdloop:
	BWD_PAIR(32, 4)
	BWD_PAIR(0, 0)

	// Renormalize beta after the step with t%4 == 0.
	VPERM2I128	$0x01, Y0, Y0, Y2
	VPMAXSD	Y2, Y0, Y2
	VPSHUFD	$0x4e, Y2, Y3
	VPMAXSD	Y3, Y2, Y2
	VPSHUFD	$0xb1, Y2, Y3
	VPMAXSD	Y3, Y2, Y2
	VPSUBD	Y2, Y0, Y0
	VPMAXSD	Y13, Y0, Y0

	SUBQ	$64, R9
	SUBQ	$64, DI
	SUBQ	$8, R8
	SUBQ	$4, CX
	JGT	bwdloop

	VZEROUPPER
	RET

// Quantizer constants: 64, ±i16LLRSat, the sign bit and 0.5 as float32,
// and the byte shuffle keeping the low word of each int32 lane.
DATA i16QScale<>+0(SB)/4, $0x42800000
GLOBL i16QScale<>(SB), RODATA|NOPTR, $4
DATA i16QHi<>+0(SB)/4, $0x447fc000
GLOBL i16QHi<>(SB), RODATA|NOPTR, $4
DATA i16QLo<>+0(SB)/4, $0xc47fc000
GLOBL i16QLo<>(SB), RODATA|NOPTR, $4
DATA i16QSign<>+0(SB)/4, $0x80000000
GLOBL i16QSign<>(SB), RODATA|NOPTR, $4
DATA i16QHalf<>+0(SB)/4, $0x3f000000
GLOBL i16QHalf<>(SB), RODATA|NOPTR, $4
DATA i16QLow16<>+0(SB)/8, $0x0d0c090805040100
DATA i16QLow16<>+8(SB)/8, $0x8080808080808080
DATA i16QLow16<>+16(SB)/8, $0x0d0c090805040100
DATA i16QLow16<>+24(SB)/8, $0x8080808080808080
GLOBL i16QLow16<>(SB), RODATA|NOPTR, $32

// func quantizeI16AVX2(dst *int16, src *float32, n int)
//
// quantizeLLR over n values (n a multiple of 8), eight per iteration:
// x = min(max(v*64, -1023), 1023) with x as the operand VMAXPS/VMINPS
// return on NaN (Go's min/max propagate NaN), then trunc(x ± 0.5) with the
// sign of x, keeping the low 16 bits of the int32 result as Go's
// float-to-int16 conversion does.
TEXT ·quantizeI16AVX2(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX

	VBROADCASTSS	i16QScale<>(SB), Y10
	VBROADCASTSS	i16QHi<>(SB), Y11
	VBROADCASTSS	i16QLo<>(SB), Y12
	VBROADCASTSS	i16QSign<>(SB), Y13
	VBROADCASTSS	i16QHalf<>(SB), Y14
	VMOVDQU	i16QLow16<>(SB), Y15

qloop:
	VMULPS	(SI), Y10, Y1
	VMAXPS	Y1, Y12, Y1
	VMINPS	Y1, Y11, Y1
	VANDPS	Y13, Y1, Y2
	VORPS	Y14, Y2, Y2
	VADDPS	Y2, Y1, Y1
	VCVTTPS2DQ	Y1, Y1
	VPSHUFB	Y15, Y1, Y1
	VPERMQ	$0x08, Y1, Y1
	VMOVDQU	X1, (DI)

	ADDQ	$32, SI
	ADDQ	$16, DI
	SUBQ	$8, CX
	JGT	qloop

	VZEROUPPER
	RET
