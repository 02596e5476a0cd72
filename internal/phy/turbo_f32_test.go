package phy

import (
	"math"
	"math/rand"
	"testing"
)

// f32Kernel is one implementation of the state-parallel float32 SISO.
type f32Kernel struct {
	name     string
	forward  func(ls, lp, la, alpha []float32, k int)
	backward func(ls, lp, la, ext, alpha []float32, beta *[turboStates]float32, k int)
	vec      bool
}

// f32Kernels lists the kernels this build can run: the unrolled pure-Go
// kernels always, the AVX2 kernels when the build and CPU have them.
func f32Kernels() []f32Kernel {
	ks := []f32Kernel{{name: "go", forward: forwardF32, backward: backwardF32}}
	if sisoAsm {
		ks = append(ks, f32Kernel{
			name: "avx2",
			forward: func(ls, lp, la, alpha []float32, k int) {
				forwardF32AVX2(&ls[0], &lp[0], &la[0], &alpha[0], k)
			},
			backward: func(ls, lp, la, ext, alpha []float32, beta *[turboStates]float32, k int) {
				backwardF32AVX2(&ls[0], &lp[0], &la[0], &ext[0], &alpha[0], beta, k)
			},
			vec: true,
		})
	}
	return ks
}

// f32Adversarial draws one LLR for the given input class. The classes cover
// what a demapper and soft combiner can hand the decoder: Gaussian LLRs,
// exact zeros of both signs (punctured / never-received bits), huge
// magnitudes that swamp — or, at ±1e30, equal — the negInf sentinel, and
// subnormals. Values stay finite with |x| ≤ 1e33 so that no path metric
// overflows to ±Inf: the kernels' contract is finite arithmetic.
func f32Adversarial(rng *rand.Rand, class int) float32 {
	sign := float32(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch class {
	case 0: // noisy channel LLR
		return float32(rng.NormFloat64() * 6)
	case 1: // +0
		return 0
	case 2: // ±0
		return sign * 0
	case 3: // huge
		if rng.Intn(2) == 0 {
			return sign * 1e30
		}
		return sign * 1e33
	case 4: // subnormal
		return sign * math.Float32frombits(uint32(1+rng.Intn(1<<20)))
	default: // any of the above
		return f32Adversarial(rng, rng.Intn(5))
	}
}

// f32Modes are the input families of TestTurboF32MatchesOracle: per mode,
// the class of every systematic/parity/a-priori value (-1 draws per value).
// loneHuge plants one ±1e33 a-priori value in otherwise erased streams:
// every branch metric of one decision then falls below negInf, so the
// extrinsic maxima must return the negInf seed, as the sequential scans do.
var f32Modes = []struct {
	name       string
	ls, lp, la int
	loneHuge   bool
}{
	{"gauss", 0, 0, 0, false},
	{"all-erased", 1, 1, 1, false},
	{"signed-zeros", 2, 2, 2, false},
	{"erased-systematic", 2, 0, 1, false},
	{"huge", 3, 3, 0, false},
	{"lone-huge-apriori", 1, 1, 1, true},
	{"subnormal", 4, 4, 4, false},
	{"mixed", -1, -1, -1, false},
}

func f32Stream(rng *rand.Rand, n, class int) []float32 {
	s := make([]float32, n)
	for i := range s {
		c := class
		if c < 0 {
			c = 5
		}
		s[i] = f32Adversarial(rng, c)
	}
	return s
}

// sameBits reports whether two float32 slices are bitwise identical,
// returning the first differing index otherwise.
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// checkF32Siso runs every kernel on one SISO input and compares it with
// sisoOracle: alpha rows, beta[K] (tail), beta[0] and — stepping the fused
// pass one trellis step at a time — every beta row must be bit-identical;
// the extrinsic must be equal under ==. The pure-Go kernels are held to
// bitwise equality on the extrinsic as well: they scan the eight branch
// metrics in the oracle's order. The AVX2 kernel reduces them as a tree,
// which on an exact tie between +0 and −0 may return −0 where the
// sequential scan keeps +0 (or vice versa) — the same value, so == holds
// and every decision downstream is unchanged.
func checkF32Siso(t testing.TB, ls, lp, la []float32, k int) {
	t.Helper()
	steps := k + turboTail
	alphaO := make([]float32, (steps+1)*turboStates)
	betaO := make([]float32, (steps+1)*turboStates)
	extO := make([]float32, k)
	sisoOracle(ls, lp, la, extO, alphaO, betaO, k)

	for _, kn := range f32Kernels() {
		alpha := make([]float32, k*turboStates)
		kn.forward(ls, lp, la, alpha, k)
		if i, ok := sameBits(alpha, alphaO[:k*turboStates]); !ok {
			t.Fatalf("%s K=%d: alpha[%d][%d] = %v (%#x), oracle %v (%#x)", kn.name, k, i/8, i%8,
				alpha[i], math.Float32bits(alpha[i]), alphaO[i], math.Float32bits(alphaO[i]))
		}
		tail := tailBetaF32(ls, lp, k)
		if i, ok := sameBits(tail[:], betaO[k*turboStates:(k+1)*turboStates]); !ok {
			t.Fatalf("%s K=%d: tail beta[%d] differs from oracle", kn.name, k, i)
		}

		ext := make([]float32, k)
		beta := tail
		kn.backward(ls, lp, la, ext, alpha, &beta, k)
		if i, ok := sameBits(beta[:], betaO[:turboStates]); !ok {
			t.Fatalf("%s K=%d: beta[0][%d] = %v, oracle %v", kn.name, k, i, beta[i], betaO[i])
		}
		for i := range ext {
			if ext[i] != extO[i] || (!kn.vec && math.Float32bits(ext[i]) != math.Float32bits(extO[i])) {
				t.Fatalf("%s K=%d: ext[%d] = %v (%#x), oracle %v (%#x)", kn.name, k, i,
					ext[i], math.Float32bits(ext[i]), extO[i], math.Float32bits(extO[i]))
			}
		}

		// The fused pass one step at a time: beta after step t is row t.
		beta = tail
		step := make([]float32, k)
		for s := k - 1; s >= 0; s-- {
			kn.backward(ls[s:], lp[s:], la[s:], step[s:], alpha[s*turboStates:], &beta, 1)
			if i, ok := sameBits(beta[:], betaO[s*turboStates:(s+1)*turboStates]); !ok {
				t.Fatalf("%s K=%d: beta[%d][%d] = %v, oracle %v", kn.name, k, s, i, beta[i], betaO[s*turboStates+i])
			}
			if step[s] != extO[s] {
				t.Fatalf("%s K=%d: stepped ext[%d] = %v, oracle %v", kn.name, k, s, step[s], extO[s])
			}
		}
	}
}

// checkF32Decode decodes one block with the oracle decoder and with a
// float32 TurboDecoder per kernel: hard decisions, iterations and erasure
// counts must be identical.
func checkF32Decode(t testing.TB, k int, l0, l1, l2 []float32, maxIter int, check func([]byte) bool) {
	t.Helper()
	want, wantIt, wantEr := oracleDecodeF32(k, l0, l1, l2, maxIter, check)
	dec, err := NewTurboDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	dec.MaxIterations = maxIter
	dec.EarlyCheck = check
	out := make([]byte, k)
	for _, noVec := range []bool{true, false} {
		dec.NoVector = noVec
		it, err := dec.Decode(out, l0, l1, l2)
		if err != nil {
			t.Fatal(err)
		}
		if it != wantIt || dec.Erasures() != wantEr {
			t.Fatalf("K=%d NoVector=%v: %d iterations / %d erasures, oracle %d / %d",
				k, noVec, it, dec.Erasures(), wantIt, wantEr)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("K=%d NoVector=%v: bit %d = %d, oracle %d", k, noVec, i, out[i], want[i])
			}
		}
	}
}

// TestTurboF32MatchesOracle pins the state-parallel float32 SISO — the
// unrolled pure-Go kernels and, where available, the AVX2 kernels — to the
// table-driven oracle on every legal block size under random and
// adversarial inputs (see checkF32Siso for the exactness contract), and the
// full iterative decode to the oracle decoder.
func TestTurboF32MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	sizes := validBlockSizes
	if testing.Short() {
		sizes = sizes[:40]
	}
	for _, k := range sizes {
		for _, m := range f32Modes {
			ls := f32Stream(rng, k+turboTail, m.ls)
			lp := f32Stream(rng, k+turboTail, m.lp)
			la := f32Stream(rng, k, m.la)
			if m.loneHuge {
				la[rng.Intn(k)] = float32(1-2*rng.Intn(2)) * 1e33
			}
			checkF32Siso(t, ls, lp, la, k)
		}
	}

	// Full decodes: noisy CRC-protected codewords (early termination
	// exercised), plus adversarial streams under the same check.
	for _, k := range []int{40, 48, 512, 1056, 4096, 6144} {
		_, l0, l1, l2 := batchTestVectors(t, rng, k, 3, 0.9)
		for b := range l0 {
			checkF32Decode(t, k, l0[b], l1[b], l2[b], DefaultTurboIterations, checkBlockCRC24B)
		}
		for _, m := range f32Modes[1:] {
			a := f32Stream(rng, k+4, m.ls)
			b := f32Stream(rng, k+4, m.lp)
			c := f32Stream(rng, k+4, m.lp)
			checkF32Decode(t, k, a, b, c, 3, checkBlockCRC24B)
		}
	}
}

// FuzzTurboF32Kernel drives the float32 SISO kernels and the full decoder
// with fuzzer-chosen block sizes and LLRs against the oracle. Every LLR is
// decoded from two input bytes — a class (noisy / ±0 / huge / subnormal)
// and a magnitude — so the engine can reach ties, cancellations and
// sentinel collisions directly; block sizes stay in the small end of the
// table to keep executions fast.
func FuzzTurboF32Kernel(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{})
	f.Add(uint8(3), int64(7), make([]byte, 64))
	f.Add(uint8(17), int64(-4), []byte{1, 0, 1, 0, 2, 9, 3, 200, 4, 4, 5, 77})
	f.Fuzz(func(t *testing.T, sz uint8, seed int64, data []byte) {
		k := validBlockSizes[int(sz)%24]
		rng := rand.New(rand.NewSource(seed))
		llr := func(i int) float32 {
			if 2*i+1 >= len(data) {
				return f32Adversarial(rng, 5)
			}
			class, mag := data[2*i], data[2*i+1]
			switch class % 6 {
			case 0:
				return 0
			case 1:
				return float32(math.Copysign(0, -1))
			case 2:
				return float32(int8(mag)) * 1e30 / 128
			case 3:
				return math.Float32frombits(uint32(mag)) * float32(1-2*int(class>>7))
			default:
				return float32(int8(mag)) / 8
			}
		}
		n := 0
		stream := func(m int) []float32 {
			s := make([]float32, m)
			for i := range s {
				s[i] = llr(n)
				n++
			}
			return s
		}
		ls, lp, la := stream(k+turboTail), stream(k+turboTail), stream(k)
		checkF32Siso(t, ls, lp, la, k)

		l0, l1, l2 := stream(k+4), stream(k+4), stream(k+4)
		checkF32Decode(t, k, l0, l1, l2, 2, checkBlockCRC24B)
	})
}
