package phy

import (
	"math"
	"math/rand"
	"testing"
)

// i16Stream draws n quantized LLRs in [-lim, lim] of one input class:
// 0 random, 1 all zero, 2 saturated ±lim, 3 one sign at full scale, 4 small
// values around zero (odd sums exercise the >>1 rounding).
func i16Stream(rng *rand.Rand, n, lim, class int) []int16 {
	s := make([]int16, n)
	for i := range s {
		switch class {
		case 0:
			s[i] = int16(rng.Intn(2*lim+1) - lim)
		case 1:
		case 2:
			s[i] = int16(lim * (1 - 2*rng.Intn(2)))
		case 3:
			s[i] = int16(-lim)
		default:
			s[i] = int16(rng.Intn(7) - 3)
		}
	}
	return s
}

// checkI16Vec runs the scalar and AVX2 int16 SISOs on the same inputs:
// alpha rows and extrinsics must be identical.
func checkI16Vec(t testing.TB, ls, lp, la []int16, k int) {
	t.Helper()
	alphaS := make([]int16, k*turboStates)
	alphaV := make([]int16, k*turboStates)
	extS := make([]int16, k)
	extV := make([]int16, k)
	sisoI16(ls, lp, la, extS, alphaS, k)
	sisoI16Vec(ls, lp, la, extV, alphaV, make([]int32, 4*k), k)
	// The vector kernels store alpha rows in their lane order.
	order := [turboStates]int{0, 2, 1, 3, 6, 4, 7, 5}
	for i := range alphaV {
		row, lane := i/turboStates, i%turboStates
		if want := alphaS[row*turboStates+order[lane]]; alphaV[i] != want {
			t.Fatalf("K=%d: alpha[%d][%d] = %d, scalar %d", k, row, order[lane], alphaV[i], want)
		}
	}
	for i := range extS {
		if extS[i] != extV[i] {
			t.Fatalf("K=%d: ext[%d] = %d, scalar %d", k, i, extV[i], extS[i])
		}
	}
}

// TestTurboI16VecMatchesScalar pins the AVX2 state-parallel int16 SISO to
// the unrolled scalar kernel on every legal block size, under random inputs
// and the range edges (zeros, saturated channel and a-priori values), and
// the full int16 decode with and without it.
func TestTurboI16VecMatchesScalar(t *testing.T) {
	if !sisoAsm {
		t.Skip("AVX2 SISO unavailable on this build/CPU")
	}
	rng := rand.New(rand.NewSource(1601))
	sizes := validBlockSizes
	if testing.Short() {
		sizes = sizes[:40]
	}
	for _, k := range sizes {
		for class := 0; class < 5; class++ {
			ls := i16Stream(rng, k+turboTail, i16LLRSat, class)
			lp := i16Stream(rng, k+turboTail, i16LLRSat, (class+rng.Intn(5))%5)
			la := i16Stream(rng, k, i16ExtSat, (class+rng.Intn(5))%5)
			checkI16Vec(t, ls, lp, la, k)
		}
	}

	for _, k := range []int{40, 512, 1056, 6144} {
		_, l0, l1, l2 := batchTestVectors(t, rng, k, 3, 0.9)
		for b := range l0 {
			checkI16Decode(t, k, l0[b], l1[b], l2[b], checkBlockCRC24B)
		}
	}
}

// checkI16Decode decodes one block with the int16 kernel on the scalar and
// the vector SISO: hard decisions, iterations and erasures must match.
func checkI16Decode(t testing.TB, k int, l0, l1, l2 []float32, check func([]byte) bool) {
	t.Helper()
	dec, err := NewTurboDecoderKernel(k, KernelInt16)
	if err != nil {
		t.Fatal(err)
	}
	dec.EarlyCheck = check
	want := make([]byte, k)
	dec.NoVector = true
	wantIt, err := dec.Decode(want, l0, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	wantEr := dec.Erasures()
	out := make([]byte, k)
	dec.NoVector = false
	it, err := dec.Decode(out, l0, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if it != wantIt || dec.Erasures() != wantEr {
		t.Fatalf("K=%d: %d iterations / %d erasures, scalar %d / %d", k, it, dec.Erasures(), wantIt, wantEr)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("K=%d: bit %d = %d, scalar %d", k, i, out[i], want[i])
		}
	}
}

// FuzzTurboI16Kernel drives the AVX2 int16 SISO with fuzzer-chosen block
// sizes and quantized LLRs (two input bytes per value, scaled to the
// kernel's ingest ranges) against the scalar kernel.
func FuzzTurboI16Kernel(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(5), []byte{127, 255, 128, 0, 1, 1, 255, 127})
	f.Fuzz(func(t *testing.T, sz uint8, data []byte) {
		if !sisoAsm {
			t.Skip("AVX2 SISO unavailable on this build/CPU")
		}
		k := validBlockSizes[int(sz)%24]
		n := 0
		stream := func(m, lim int) []int16 {
			s := make([]int16, m)
			for i := range s {
				if 2*n+1 < len(data) {
					v := int(int16(uint16(data[2*n]) | uint16(data[2*n+1])<<8))
					s[i] = int16(v * lim / 32768)
				}
				n++
			}
			return s
		}
		ls, lp := stream(k+turboTail, i16LLRSat), stream(k+turboTail, i16LLRSat)
		la := stream(k, i16ExtSat)
		checkI16Vec(t, ls, lp, la, k)
	})
}

// TestQuantizeLLRsMatchesScalar pins the stream quantizer (eight values at
// a time on the AVX2 path) to quantizeLLR, including the rounding and
// saturation edges, signed zeros, infinities and NaN.
func TestQuantizeLLRsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	edges := []float32{0, float32(math.Copysign(0, -1)), 0.0078125, -0.0078125, 0.0078124, 15.984375,
		15.99, 16, -16, 1e30, -1e30, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(1), 0.5 / 64, -0.5 / 64, 1.5 / 64, -2.5 / 64}
	for _, n := range []int{1, 7, 8, 9, 64, 6147} {
		src := make([]float32, n)
		for i := range src {
			if i%3 == 0 {
				src[i] = edges[rng.Intn(len(edges))]
			} else {
				src[i] = float32(rng.NormFloat64() * 8)
			}
		}
		dst := make([]int16, n)
		quantizeLLRs(dst, src)
		for i, v := range src {
			if want := quantizeLLR(v); dst[i] != want {
				t.Fatalf("n=%d: quantizeLLRs[%d](%v) = %d, quantizeLLR %d", n, i, v, dst[i], want)
			}
		}
	}
}
