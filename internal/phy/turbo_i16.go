package phy

import "math"

// Quantized fixed-point max-log-MAP SISO (KernelInt16).
//
// Arithmetic model: LLRs are quantized to Q6 fixed point (64 units per LLR
// unit) and saturated at ingest; extrinsic information is clamped to ±64
// LLR; path metrics live in int16 with the trellis butterflies fully
// unrolled over the fixed LTE 8-state RSC structure (no table lookups, no
// bounds checks in the inner loop) and renormalized by the running maximum
// every fourth trellis step. The backward recursion is fused with the
// extrinsic computation so beta metrics never touch memory — only the
// forward metrics are stored, as int16, halving the metric working set of
// the float32 kernel. These are exactly the tricks fixed-point SIMD turbo
// decoders use; here they buy the same things in pure Go — fewer loads,
// smaller cache footprint, branch-free maxes.
//
// Numerical ranges (all in Q6 units): channel LLRs saturate at ±1023
// (±16.0), a-priori/extrinsic at ±4096 (±64.0), so branch metrics satisfy
// |g| ≤ (1023+4096+1023)/2 < 3072. With renormalization every 4 steps,
// stored metrics stay within [−29213, +9213] and every intermediate fits
// comfortably in int16/int — see the derivation in the kernel tests.

const (
	// i16FracBits is the Q-format: 64 quantization units per LLR unit.
	i16FracBits = 6
	i16One      = 1 << i16FracBits
	// i16LLRSat saturates quantized channel LLRs (≈ ±16 LLR).
	i16LLRSat = 1023
	// i16ExtSat clamps extrinsic/a-priori values (≈ ±64 LLR).
	i16ExtSat = 4096
	// i16MetricMin is the metric floor standing in for −inf; real path
	// metric spreads are bounded well above it (≤ 3·2·3072 ≈ 18.4k), so
	// clamping only ever affects dead states.
	i16MetricMin = -20000
	// i16NormStride renormalizes metrics every 4 trellis steps; between
	// renormalizations metrics drift by at most 3·3072 in either direction,
	// which keeps every stored value inside int16.
	i16NormStride = 4
)

// i16Buffers is the working storage of the int16 kernel, allocated once at
// decoder construction (TurboDecoder keeps either these or the float32
// buffers, never both).
type i16Buffers struct {
	ls1, lp1 []int16 // systematic & parity, natural order (len K+3)
	ls2, lp2 []int16 // systematic (interleaved) & parity (len K+3)
	apri     []int16 // a-priori input to the running constituent (len K)
	ext1     []int16 // extrinsic from decoder 1, natural order
	ext2     []int16 // extrinsic from decoder 2, interleaved order
	alpha    []int16 // K×8 forward metrics (beta stays in registers)
	// gb is the AVX2 kernels' branch-metric stream (sisoI16Vec), 4 int32
	// per data step, allocated only where they can run.
	gb []int32
}

func newI16Buffers(k int) *i16Buffers {
	steps := k + turboTail
	b := &i16Buffers{
		ls1:   make([]int16, steps),
		lp1:   make([]int16, steps),
		ls2:   make([]int16, steps),
		lp2:   make([]int16, steps),
		apri:  make([]int16, k),
		ext1:  make([]int16, k),
		ext2:  make([]int16, k),
		alpha: make([]int16, k*turboStates),
	}
	if sisoAsm {
		b.gb = make([]int32, 4*k)
	}
	return b
}

// quantizeLLR converts one float32 LLR to saturated Q6 fixed point,
// rounding half away from zero. It is branch-free (clamp, then add ±0.5
// with the sign of the value and truncate): LLR signs are random, so a
// sign branch mispredicts on every other value.
func quantizeLLR(v float32) int16 {
	x := min(max(v*i16One, -i16LLRSat), i16LLRSat)
	half := math.Float32frombits(math.Float32bits(x)&(1<<31) | math.Float32bits(0.5))
	return int16(x + half)
}

// quantizeLLRs quantizes a stream (the ingest boundary of the kernel),
// eight values at a time on the AVX2 path where available; the results are
// quantizeLLR's either way.
func quantizeLLRs(dst []int16, src []float32) {
	n := len(src)
	if sisoAsm && n >= 8 {
		v := n &^ 7
		quantizeI16AVX2(&dst[0], &src[0], v)
		dst, src = dst[v:], src[v:n]
	}
	for i, v := range src {
		dst[i] = quantizeLLR(v)
	}
}

// decodeI16 is the int16-kernel body of Decode: identical iteration
// structure to the float32 path, with LLR quantization at the demux step.
// Inputs were already length-checked by Decode.
func (d *TurboDecoder) decodeI16(out []byte, ld0, ld1, ld2 []float32) (int, error) {
	k := d.q.K
	b := d.i16
	quantizeLLRs(b.ls1[:k], ld0[:k])
	quantizeLLRs(b.lp1[:k], ld1[:k])
	quantizeLLRs(b.lp2[:k], ld2[:k])
	for i := 0; i < k; i++ {
		b.ls2[i] = b.ls1[d.q.Perm(i)]
	}
	// Tails: inverse of the encoder multiplexing (same layout as float32).
	b.ls1[k+0], b.lp1[k+0] = quantizeLLR(ld0[k+0]), quantizeLLR(ld1[k+0])
	b.ls1[k+1], b.lp1[k+1] = quantizeLLR(ld2[k+0]), quantizeLLR(ld0[k+1])
	b.ls1[k+2], b.lp1[k+2] = quantizeLLR(ld1[k+1]), quantizeLLR(ld2[k+1])
	b.ls2[k+0], b.lp2[k+0] = quantizeLLR(ld0[k+2]), quantizeLLR(ld1[k+2])
	b.ls2[k+1], b.lp2[k+1] = quantizeLLR(ld2[k+2]), quantizeLLR(ld0[k+3])
	b.ls2[k+2], b.lp2[k+2] = quantizeLLR(ld1[k+3]), quantizeLLR(ld2[k+3])

	clear(b.apri)
	d.iterationsUsed, d.erasures = 0, 0
	vec := sisoAsm && !d.NoVector
	for it := 0; it < d.MaxIterations; it++ {
		if vec {
			sisoI16Vec(b.ls1, b.lp1, b.apri, b.ext1, b.alpha, b.gb, k)
		} else {
			sisoI16(b.ls1, b.lp1, b.apri, b.ext1, b.alpha, k)
		}
		for i := 0; i < k; i++ {
			b.apri[i] = b.ext1[d.q.Perm(i)]
		}
		if vec {
			sisoI16Vec(b.ls2, b.lp2, b.apri, b.ext2, b.alpha, b.gb, k)
		} else {
			sisoI16(b.ls2, b.lp2, b.apri, b.ext2, b.alpha, k)
		}
		for i := 0; i < k; i++ {
			b.apri[d.q.Perm(i)] = b.ext2[i]
		}
		d.iterationsUsed = it + 1
		// Same erasure rule as the float32 path: a zero a-posteriori sum
		// decides nothing.
		// The decision is the sign bit, taken without a branch: on random
		// payloads a branch here mispredicts on every other bit.
		erased := 0
		ls1, ext1, apri, hard := b.ls1[:k], b.ext1[:k], b.apri[:k], d.hard[:k]
		for i := range hard {
			l := int(ls1[i]) + int(ext1[i]) + int(apri[i])
			hard[i] = byte(uint(l) >> 63)
			if l == 0 {
				erased++
			}
		}
		d.erasures = erased
		if erased == 0 && d.EarlyCheck != nil && d.EarlyCheck(d.hard) {
			break
		}
	}
	copy(out, d.hard)
	return d.iterationsUsed, nil
}

// sisoI16 runs one quantized max-log-MAP pass over a terminated constituent
// trellis: ls/lp are Q6 systematic/parity LLRs with tails appended (len
// K+3), la the a-priori for the K data steps, ext the extrinsic output,
// alpha a K×8 int16 scratch. The butterflies are unrolled over the fixed
// LTE trellis (g0 = (ls+la+lp)/2, g1 = (ls+la−lp)/2; the d=1 branch metrics
// are their negations). TestUnrolledTrellisMatchesTables pins the unrolled
// structure against the generated trellis tables.
func sisoI16(ls, lp, la, ext []int16, alpha []int16, k int) {
	// Forward recursion, keeping the 8 state metrics in locals; row t of
	// alpha stores the metrics *entering* step t.
	a0, a1, a2, a3, a4, a5, a6, a7 := 0,
		i16MetricMin, i16MetricMin, i16MetricMin,
		i16MetricMin, i16MetricMin, i16MetricMin, i16MetricMin
	// Alpha rows move as whole [8]int16 values: one 16-byte access per row
	// (one instrumented range access under -race instead of eight).
	for t := 0; t < k; t++ {
		*(*[turboStates]int16)(alpha[t*turboStates:]) = [turboStates]int16{
			int16(a0), int16(a1), int16(a2), int16(a3),
			int16(a4), int16(a5), int16(a6), int16(a7),
		}
		h := int(ls[t]) + int(la[t])
		p := int(lp[t])
		g0 := (h + p) >> 1
		g1 := (h - p) >> 1
		n0 := a0 + g0
		if v := a1 - g0; v > n0 {
			n0 = v
		}
		n1 := a2 - g1
		if v := a3 + g1; v > n1 {
			n1 = v
		}
		n2 := a4 + g1
		if v := a5 - g1; v > n2 {
			n2 = v
		}
		n3 := a6 - g0
		if v := a7 + g0; v > n3 {
			n3 = v
		}
		n4 := a0 - g0
		if v := a1 + g0; v > n4 {
			n4 = v
		}
		n5 := a2 + g1
		if v := a3 - g1; v > n5 {
			n5 = v
		}
		n6 := a4 - g1
		if v := a5 + g1; v > n6 {
			n6 = v
		}
		n7 := a6 + g0
		if v := a7 - g0; v > n7 {
			n7 = v
		}
		a0, a1, a2, a3, a4, a5, a6, a7 = n0, n1, n2, n3, n4, n5, n6, n7
		if t&(i16NormStride-1) == i16NormStride-1 {
			a0, a1, a2, a3, a4, a5, a6, a7 = normI16(a0, a1, a2, a3, a4, a5, a6, a7)
		}
	}

	bt := tailBetaI16(ls, lp, k)
	b0, b1, b2, b3 := int(bt[0]), int(bt[1]), int(bt[2]), int(bt[3])
	b4, b5, b6, b7 := int(bt[4]), int(bt[5]), int(bt[6]), int(bt[7])

	// Fused backward recursion + extrinsic: at step t the registers hold
	// beta[t+1]; the extrinsic needs only alpha[t], beta[t+1] and ±lp/2 (the
	// systematic and a-priori halves cancel in the d=0/d=1 difference).
	for t := k - 1; t >= 0; t-- {
		row := *(*[turboStates]int16)(alpha[t*turboStates:])
		r0, r1, r2, r3 := int(row[0]), int(row[1]), int(row[2]), int(row[3])
		r4, r5, r6, r7 := int(row[4]), int(row[5]), int(row[6]), int(row[7])
		p2 := int(lp[t]) >> 1
		// d=0 branches: (state, ±p, successor).
		x0 := r0 + p2 + b0
		if v := r1 + p2 + b4; v > x0 {
			x0 = v
		}
		if v := r2 - p2 + b5; v > x0 {
			x0 = v
		}
		if v := r3 - p2 + b1; v > x0 {
			x0 = v
		}
		if v := r4 - p2 + b2; v > x0 {
			x0 = v
		}
		if v := r5 - p2 + b6; v > x0 {
			x0 = v
		}
		if v := r6 + p2 + b7; v > x0 {
			x0 = v
		}
		if v := r7 + p2 + b3; v > x0 {
			x0 = v
		}
		// d=1 branches.
		x1 := r0 - p2 + b4
		if v := r1 - p2 + b0; v > x1 {
			x1 = v
		}
		if v := r2 + p2 + b1; v > x1 {
			x1 = v
		}
		if v := r3 + p2 + b5; v > x1 {
			x1 = v
		}
		if v := r4 + p2 + b6; v > x1 {
			x1 = v
		}
		if v := r5 + p2 + b2; v > x1 {
			x1 = v
		}
		if v := r6 - p2 + b3; v > x1 {
			x1 = v
		}
		if v := r7 - p2 + b7; v > x1 {
			x1 = v
		}
		e := x0 - x1
		if e > i16ExtSat {
			e = i16ExtSat
		} else if e < -i16ExtSat {
			e = -i16ExtSat
		}
		ext[t] = int16(e)

		// beta[t] from beta[t+1].
		h := int(ls[t]) + int(la[t])
		p := int(lp[t])
		g0 := (h + p) >> 1
		g1 := (h - p) >> 1
		n0 := g0 + b0
		if v := -g0 + b4; v > n0 {
			n0 = v
		}
		n1 := g0 + b4
		if v := -g0 + b0; v > n1 {
			n1 = v
		}
		n2 := g1 + b5
		if v := -g1 + b1; v > n2 {
			n2 = v
		}
		n3 := g1 + b1
		if v := -g1 + b5; v > n3 {
			n3 = v
		}
		n4 := g1 + b2
		if v := -g1 + b6; v > n4 {
			n4 = v
		}
		n5 := g1 + b6
		if v := -g1 + b2; v > n5 {
			n5 = v
		}
		n6 := g0 + b7
		if v := -g0 + b3; v > n6 {
			n6 = v
		}
		n7 := g0 + b3
		if v := -g0 + b7; v > n7 {
			n7 = v
		}
		b0, b1, b2, b3, b4, b5, b6, b7 = n0, n1, n2, n3, n4, n5, n6, n7
		if t&(i16NormStride-1) == 0 {
			b0, b1, b2, b3, b4, b5, b6, b7 = normI16(b0, b1, b2, b3, b4, b5, b6, b7)
		}
	}
}

// sisoI16Vec is sisoI16 on the AVX2 state-parallel kernels
// (turbo_i16_amd64.s) around the shared tail recursion; callers check
// sisoAsm, and k must be a multiple of 8 (every LTE block size is). gb is
// the kernels' branch-metric scratch (len 4k). The extrinsics are
// identical; the alpha rows hold the same metrics in the kernels' lane
// order (TestTurboI16VecMatchesScalar).
func sisoI16Vec(ls, lp, la, ext, alpha []int16, gb []int32, k int) {
	forwardI16AVX2(&ls[0], &lp[0], &la[0], &alpha[0], &gb[0], k)
	beta := tailBetaI16(ls, lp, k)
	backwardI16AVX2(&gb[0], &ext[0], &alpha[0], &beta, k)
}

// tailBetaI16 runs the backward recursion over the three tail steps of a
// terminated trellis (single terminating branch per state, table-driven —
// only 3 steps, not hot) and returns the renormalized beta[K] the fused
// pass starts from.
func tailBetaI16(ls, lp []int16, k int) [turboStates]int16 {
	var bt [turboStates]int
	bt[0] = 0
	for s := 1; s < turboStates; s++ {
		bt[s] = i16MetricMin
	}
	for t := k + turboTail - 1; t >= k; t-- {
		h := int(ls[t])
		p := int(lp[t])
		g0 := (h + p) >> 1
		g1 := (h - p) >> 1
		var nb [turboStates]int
		for s := 0; s < turboStates; s++ {
			var g int
			switch tailGamma[s] {
			case 0:
				g = g0
			case 1:
				g = g1
			case 2:
				g = -g1
			default:
				g = -g0
			}
			nb[s] = g + bt[tailNext[s]]
		}
		bt = nb
	}
	b0, b1, b2, b3, b4, b5, b6, b7 := normI16(bt[0], bt[1], bt[2], bt[3], bt[4], bt[5], bt[6], bt[7])
	return [turboStates]int16{
		int16(b0), int16(b1), int16(b2), int16(b3),
		int16(b4), int16(b5), int16(b6), int16(b7),
	}
}

// normI16 renormalizes eight path metrics: subtract the maximum (so the
// best state sits at 0) and clamp the floor at i16MetricMin, preserving
// max-log decisions exactly while bounding the stored range.
func normI16(a0, a1, a2, a3, a4, a5, a6, a7 int) (int, int, int, int, int, int, int, int) {
	m := a0
	if a1 > m {
		m = a1
	}
	if a2 > m {
		m = a2
	}
	if a3 > m {
		m = a3
	}
	if a4 > m {
		m = a4
	}
	if a5 > m {
		m = a5
	}
	if a6 > m {
		m = a6
	}
	if a7 > m {
		m = a7
	}
	a0 -= m
	a1 -= m
	a2 -= m
	a3 -= m
	a4 -= m
	a5 -= m
	a6 -= m
	a7 -= m
	if a0 < i16MetricMin {
		a0 = i16MetricMin
	}
	if a1 < i16MetricMin {
		a1 = i16MetricMin
	}
	if a2 < i16MetricMin {
		a2 = i16MetricMin
	}
	if a3 < i16MetricMin {
		a3 = i16MetricMin
	}
	if a4 < i16MetricMin {
		a4 = i16MetricMin
	}
	if a5 < i16MetricMin {
		a5 = i16MetricMin
	}
	if a6 < i16MetricMin {
		a6 = i16MetricMin
	}
	if a7 < i16MetricMin {
		a7 = i16MetricMin
	}
	return a0, a1, a2, a3, a4, a5, a6, a7
}
