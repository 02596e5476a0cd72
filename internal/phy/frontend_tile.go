package phy

import "math"

// Two-phase tiled fused front-end (DESIGN.md choice #12).
//
// The original fused front-end interleaved demodulation, descrambling and
// the rate-match scatter per symbol. That single walk is compact but
// un-vectorizable: the scatter's data-dependent indices serialize the whole
// loop. The tiled pipeline splits the work per code block into:
//
//   phase 1 (compute-dense, vectorizable): demodulate a cache-blocked tile
//     of up to feTileSyms symbols into a plane-major (structure-of-arrays)
//     float32 LLR strip — plane b holds bit b of every symbol — and fold
//     the descrambling sign flip in as an XOR against pre-expanded
//     keystream sign words. On AVX2 hosts this phase runs in assembly
//     (frontend_avx2_amd64.s, 8 symbols per iteration); the pure-Go tile
//     kernels below are the bit-identical fallback and handle the ragged
//     sub-8-symbol tile tail.
//
//   phase 2 (memory-bound, stays scalar): scatter the finished strip
//     through the rate matcher's compacted inverse permutation into the
//     block's HARQ soft region. The indices are a data-dependent
//     permutation with accumulate semantics, so a SIMD gather/scatter buys
//     nothing here; instead the loop is kept tight — the ragged partial
//     symbols at code-block boundaries and the circular-buffer wrap are
//     peeled once per tile, leaving a branch-light unrolled walk over whole
//     symbols.
//
// Bit-exactness contract: every float expression in the tile kernels
// matches the staged Demodulate path (demodSymbolLLRs / the *AxisLLRFast
// helpers) exactly — same multiply order, same float64→float32 conversion
// point — and the AVX2 kernels perform literally the same operations four
// lanes at a time (VPCMPGTQ reproduces the scalar integer borrow-bit
// segment select on the float bit patterns; no FMA contraction). Change
// any of them together or the fused-vs-staged and vector-vs-scalar
// property tests will fail.

// feTileSyms is the tile height in symbols. 256 symbols keep the strip and
// sign planes (6 KiB each at 64-QAM) plus the covering slice of the
// scatter table L1-resident while a tile is in flight, and the scratch
// small enough to live on the worker's stack.
const feTileSyms = 256

// feExpandSigns fills the plane-major keystream sign words for symbols
// [s0, s0+n) of a tile: sgn[b*stride+t] holds coded bit (s0+t)*qm+b of the
// scrambling sequence, shifted to the float32 sign position, so phase 1
// descrambles with one XOR per LLR. On AVX2 hosts the expansion itself is
// vectorized (feExpandSignsAVX2: broadcast a 64-bit keystream window,
// VPSRLVQ per-lane bit extraction, four entries per step); the scalar loop
// below finishes the tail and is the whole path otherwise. The scrambler's
// guard word makes key[wi+1] always addressable, so every refill loads a
// full 64-bit window and the inner loop is shift/mask only.
func feExpandSigns(sgn []uint32, key []uint32, s0, n, qm, stride int, vector bool) {
	t0 := 0
	if vector && feAsm {
		if n4 := n &^ 3; n4 > 0 {
			feExpandSignsAVX2(&sgn[0], &key[0], s0*qm, n4, stride, qm)
			t0 = n4
		}
	}
	if t0 == n {
		return
	}
	for b := 0; b < qm; b++ {
		row := sgn[b*stride : b*stride+n]
		g0 := s0*qm + b
		for t := t0; t < n; {
			g := g0 + t*qm
			wi := g >> 5
			sh := uint(g) & 31
			w := (uint64(key[wi+1])<<32 | uint64(key[wi])) >> sh
			// The window holds bits g..g+63-sh; emit every entry it covers.
			m := t + (63-int(sh))/qm + 1
			if m > n {
				m = n
			}
			for ; t < m; t++ {
				row[t] = uint32(w&1) << 31
				w >>= uint(qm)
			}
		}
	}
}

// feTileDemod runs phase 1 for one tile: demodulate rx[:n] into the first
// qm planes of strip (plane-major, the given stride) with the sign words
// already expanded into sgn XORed in. The AVX2 path consumes the largest
// multiple-of-8 prefix; the pure-Go kernels finish the tail and are the
// whole path on non-AVX2 hosts, purego builds, or when the processor was
// built with NoVector.
func feTileDemod(mod Modulation, strip []float32, sgn []uint32, rx []complex128, n, stride int, invN0 float64, vector bool) {
	t0 := 0
	if vector && feAsm {
		if nv := n &^ 7; nv > 0 {
			switch mod {
			case QPSK:
				feTileQPSKAVX2(&rx[0], &strip[0], &sgn[0], nv, 4*qpskA*invN0, stride)
			case QAM16:
				feTile16AVX2(&rx[0], &strip[0], &sgn[0], nv, invN0, stride, &feC16)
			default:
				feTile64AVX2(&rx[0], &strip[0], &sgn[0], nv, invN0, stride, &feC64)
			}
			t0 = nv
		}
	}
	switch mod {
	case QPSK:
		feTileQPSKGo(strip, sgn, rx, t0, n, stride, 4*qpskA*invN0)
	case QAM16:
		feTile16Go(strip, sgn, rx, t0, n, stride, invN0)
	default:
		feTile64Go(strip, sgn, rx, t0, n, stride, invN0)
	}
}

// feTileQPSKGo demodulates tile symbols [t0, t1) into the two QPSK planes
// with the descrambling sign folded in. c is 4*qpskA*invN0, computed once
// by the caller exactly as the staged path does.
func feTileQPSKGo(strip []float32, sgn []uint32, rx []complex128, t0, t1, stride int, c float64) {
	for t := t0; t < t1; t++ {
		s := rx[t]
		c0 := float32(c * real(s))
		c1 := float32(c * imag(s))
		strip[t] = math.Float32frombits(math.Float32bits(c0) ^ sgn[t])
		strip[stride+t] = math.Float32frombits(math.Float32bits(c1) ^ sgn[stride+t])
	}
}

// feTile16Go demodulates tile symbols [t0, t1) into the four 16-QAM planes
// (I.l0, Q.l0, I.l1, Q.l1 — transmitted bit order) with the descrambling
// sign folded in. The axis metric is the qam16AxisLLRFast body with the
// table row kept in registers.
func feTile16Go(strip []float32, sgn []uint32, rx []complex128, t0, t1, stride int, invN0 float64) {
	a := qam16A
	for t := t0; t < t1; t++ {
		s := rx[t]

		bi := math.Float64bits(real(s))
		si := bi & f64Sign
		iyi := int64(bi &^ f64Sign)
		yi := math.Float64frombits(uint64(iyi))
		ri := &qam16Tab[int(uint64(q16cmp2a-iyi)>>63)&1]
		mi := ri.l0s*yi - ri.l0o
		i0 := math.Float64frombits(math.Float64bits(mi) ^ si)
		i1 := 4 * a * (2*a - yi)

		bq := math.Float64bits(imag(s))
		sq := bq & f64Sign
		iyq := int64(bq &^ f64Sign)
		yq := math.Float64frombits(uint64(iyq))
		rq := &qam16Tab[int(uint64(q16cmp2a-iyq)>>63)&1]
		mq := rq.l0s*yq - rq.l0o
		q0 := math.Float64frombits(math.Float64bits(mq) ^ sq)
		q1 := 4 * a * (2*a - yq)

		c0 := float32(i0 * invN0)
		c1 := float32(q0 * invN0)
		c2 := float32(i1 * invN0)
		c3 := float32(q1 * invN0)
		strip[t] = math.Float32frombits(math.Float32bits(c0) ^ sgn[t])
		strip[stride+t] = math.Float32frombits(math.Float32bits(c1) ^ sgn[stride+t])
		strip[2*stride+t] = math.Float32frombits(math.Float32bits(c2) ^ sgn[2*stride+t])
		strip[3*stride+t] = math.Float32frombits(math.Float32bits(c3) ^ sgn[3*stride+t])
	}
}

// feTile64Go demodulates tile symbols [t0, t1) into the six 64-QAM planes
// (I.l0, Q.l0, I.l1, Q.l1, I.l2, Q.l2) with the descrambling sign folded
// in. The axis metric is the qam64AxisLLRFast body with the segment row
// kept in registers.
func feTile64Go(strip []float32, sgn []uint32, rx []complex128, t0, t1, stride int, invN0 float64) {
	a := qam64A
	for t := t0; t < t1; t++ {
		s := rx[t]

		bi := math.Float64bits(real(s))
		si := bi & f64Sign
		iyi := int64(bi &^ f64Sign)
		yi := math.Float64frombits(uint64(iyi))
		segI := int(uint64(q64cmp2a-iyi)>>63) + int(uint64(q64cmp4a-iyi)>>63) + int(uint64(q64cmp6a-iyi)>>63)
		ri := &qam64Tab[segI&3]
		mi := ri.l0s*yi - ri.l0o
		i0 := math.Float64frombits(math.Float64bits(mi) ^ si)
		i1 := ri.l1c - ri.l1s*yi
		ti := 4 * a * yi
		i2 := ri.l2s*ti + ri.l2c

		bq := math.Float64bits(imag(s))
		sq := bq & f64Sign
		iyq := int64(bq &^ f64Sign)
		yq := math.Float64frombits(uint64(iyq))
		segQ := int(uint64(q64cmp2a-iyq)>>63) + int(uint64(q64cmp4a-iyq)>>63) + int(uint64(q64cmp6a-iyq)>>63)
		rq := &qam64Tab[segQ&3]
		mq := rq.l0s*yq - rq.l0o
		q0 := math.Float64frombits(math.Float64bits(mq) ^ sq)
		q1 := rq.l1c - rq.l1s*yq
		tq := 4 * a * yq
		q2 := rq.l2s*tq + rq.l2c

		c0 := float32(i0 * invN0)
		c1 := float32(q0 * invN0)
		c2 := float32(i1 * invN0)
		c3 := float32(q1 * invN0)
		c4 := float32(i2 * invN0)
		c5 := float32(q2 * invN0)
		strip[t] = math.Float32frombits(math.Float32bits(c0) ^ sgn[t])
		strip[stride+t] = math.Float32frombits(math.Float32bits(c1) ^ sgn[stride+t])
		strip[2*stride+t] = math.Float32frombits(math.Float32bits(c2) ^ sgn[2*stride+t])
		strip[3*stride+t] = math.Float32frombits(math.Float32bits(c3) ^ sgn[3*stride+t])
		strip[4*stride+t] = math.Float32frombits(math.Float32bits(c4) ^ sgn[4*stride+t])
		strip[5*stride+t] = math.Float32frombits(math.Float32bits(c5) ^ sgn[5*stride+t])
	}
}

// feScatter runs phase 2 for one tile: scatter tile bits [lo, hi) (bit
// offsets within the tile's symbol range, transmitted order) through the
// rate matcher's compacted inverse permutation into blk, continuing at
// cursor j; it returns the advanced cursor. The circular-buffer wrap is
// hoisted into an outer run loop (a run never crosses len(scat)), and the
// ragged partial symbols at the run edges — code-block boundaries that
// split a symbol — are peeled once per run, so the interior loop over
// whole symbols carries no per-bit branches. Each run indexes its scat
// window through a sub-slice whose length the unroll condition tests
// directly, so the six permutation loads per symbol carry no bounds
// checks.
func feScatter(blk []float32, scat []int32, strip []float32, stride, qm, lo, hi, j int) int {
	nd := len(scat)
	for lo < hi {
		run := hi - lo
		if left := nd - j; run > left {
			run = left
		}
		sc := scat[j : j+run : j+run]
		end := lo + run
		k := 0
		// Head: finish a partially consumed symbol.
		if b := lo % qm; b != 0 {
			t := lo / qm
			for ; b < qm && k < run; b++ {
				blk[sc[k]] += strip[b*stride+t]
				k++
				lo++
			}
		}
		// Whole symbols, unrolled per modulation. lo advances with k, so
		// k+qm <= len(sc) is the old lo+qm <= end — and proves the window
		// accesses in bounds.
		t := lo / qm
		switch qm {
		case 2:
			for ; k+2 <= len(sc); k += 2 {
				blk[sc[k]] += strip[t]
				blk[sc[k+1]] += strip[stride+t]
				t++
			}
		case 4:
			for ; k+4 <= len(sc); k += 4 {
				blk[sc[k]] += strip[t]
				blk[sc[k+1]] += strip[stride+t]
				blk[sc[k+2]] += strip[2*stride+t]
				blk[sc[k+3]] += strip[3*stride+t]
				t++
			}
		default:
			for ; k+6 <= len(sc); k += 6 {
				blk[sc[k]] += strip[t]
				blk[sc[k+1]] += strip[stride+t]
				blk[sc[k+2]] += strip[2*stride+t]
				blk[sc[k+3]] += strip[3*stride+t]
				blk[sc[k+4]] += strip[4*stride+t]
				blk[sc[k+5]] += strip[5*stride+t]
				t++
			}
		}
		// Tail: leading bits of a final partial symbol.
		for b := 0; k < run; b++ {
			blk[sc[k]] += strip[b*stride+t]
			k++
		}
		j += run
		lo = end
		if j == nd {
			j = 0
		}
	}
	return j
}

// feQAM16Consts is the broadcast coefficient block the 16-QAM AVX2 tile
// kernel reads. Each coefficient is stored as a full 4-lane row (one per
// segment where applicable) so the assembly selects rows with VBLENDVPD
// straight from memory. Filled at init on amd64 from the same qam16Tab /
// qam16A values the scalar path uses, so the lanes are bit-identical.
// Field offsets are pinned by TestFEConstOffsets against the literals in
// frontend_avx2_amd64.s.
type feQAM16Consts struct {
	cmp2a    [4]int64      // offset 0:   float bits of 2a, int64 lanes
	l0s      [2][4]float64 // offset 32:  l0 slope rows (segment 0, 1)
	l0o      [2][4]float64 // offset 96:  l0 offset rows
	twoA     [4]float64    // offset 160: 2a
	fourA    [4]float64    // offset 192: 4a
	signMask [4]uint64     // offset 224: 1<<63
	absMask  [4]uint64     // offset 256: ^uint64(1<<63)
}

// feQAM64Consts is the 64-QAM coefficient block. Unlike the 16-QAM layout,
// each piecewise-linear coefficient is stored packed — lane r holds segment
// row r — so the assembly selects per-lane rows with a single VPERMD
// (indices {2s, 2s+1} pick row s's qword as a dword pair) instead of a
// three-deep VBLENDVPD chain per coefficient. idxAdd is the dword vector
// {0,1,0,1,...} that finishes the index build. Offsets pinned by
// TestFEConstOffsets.
type feQAM64Consts struct {
	cmp2a    [4]int64   // offset 0
	cmp4a    [4]int64   // offset 32
	cmp6a    [4]int64   // offset 64
	l0s      [4]float64 // offset 96:  rows 0..3 packed by segment
	l0o      [4]float64 // offset 128
	l1c      [4]float64 // offset 160
	l1s      [4]float64 // offset 192
	l2s      [4]float64 // offset 224
	l2c      [4]float64 // offset 256
	fourA    [4]float64 // offset 288
	signMask [4]uint64  // offset 320
	absMask  [4]uint64  // offset 352
	idxAdd   [8]uint32  // offset 384
}
