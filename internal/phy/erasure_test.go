package phy

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestErasedBlockNeverAccepted is the regression test for undecided blocks
// passing CRC. A HARQ retransmission with RV 2 landing on a fresh soft
// buffer (the HARQ manager's busy/new-process path) carries almost no
// systematic bits, so at MCS 20/27 on 1–6 PRB most a-posteriori LLRs are
// exactly zero and decide to 0. An all-zero block has CRC-24A/B zero, so
// such a block used to be returned as a successfully decoded all-zero
// payload. Every processor variant must now either return the transmitted
// payload or fail with ErrCRC.
func TestErasedBlockNeverAccepted(t *testing.T) {
	variants := []struct {
		name string
		o    ProcOptions
	}{
		{"f32", ProcOptions{}},
		{"f32-novec", ProcOptions{NoVector: true}},
		{"f32-staged", ProcOptions{FrontEnd: FrontEndStaged}},
		{"f32-w2", ProcOptions{Workers: 2}},
		{"i16", ProcOptions{Kernel: KernelInt16}},
		{"i16-w2-batch2", ProcOptions{Kernel: KernelInt16, Workers: 2, Batch: 2}},
	}
	trials := 30
	if testing.Short() {
		trials = 10
	}
	for _, c := range []struct {
		mcs  MCS
		nprb int
	}{{20, 1}, {20, 6}, {27, 3}, {27, 6}} {
		for _, v := range variants {
			p, err := NewTransportProcessorOpts(c.mcs, c.nprb, v.o)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(c.mcs)*100 + int64(c.nprb)))
			ch := NewAWGNChannel(30, int64(c.nprb))
			for trial := 0; trial < trials; trial++ {
				payload := randBits(rng, p.TransportBlockSize())
				syms, err := p.Encode(payload, 9, 11, 3, 2)
				if err != nil {
					t.Fatal(err)
				}
				rx := append([]complex128(nil), syms...)
				ch.Apply(rx)
				out, err := p.Decode(rx, ch.N0(), 9, 11, 3, 2, p.NewSoftBuffer())
				if err == nil && !bytes.Equal(out, payload) {
					t.Fatalf("%s MCS %d PRB %d trial %d: wrong payload accepted (%d of %d bits set)",
						v.name, c.mcs, c.nprb, trial, bytes.Count(out, []byte{1}), len(out))
				}
			}
			p.Close()
		}
	}
}

// TestAllErasedStreamsAreErasures decodes all-zero LLR streams — no
// information at all — with a check that accepts anything: every kernel
// must report K erasures, never consult the check, and run the whole
// iteration budget; a batched lane must come back failed.
func TestAllErasedStreamsAreErasures(t *testing.T) {
	const k = 104
	zero := make([]float32, k+4)
	out := make([]byte, k)
	calls := 0
	accept := func([]byte) bool { calls++; return true }
	for _, kernel := range []DecodeKernel{KernelFloat32, KernelInt16} {
		for _, noVec := range []bool{false, true} {
			dec, err := NewTurboDecoderKernel(k, kernel)
			if err != nil {
				t.Fatal(err)
			}
			dec.NoVector = noVec
			dec.MaxIterations = 3
			dec.EarlyCheck = accept
			it, err := dec.Decode(out, zero, zero, zero)
			if err != nil {
				t.Fatal(err)
			}
			if it != 3 || dec.Erasures() != k || calls != 0 {
				t.Fatalf("%v NoVector=%v: %d iterations, %d erasures, %d checks; want 3, %d, 0",
					kernel, noVec, it, dec.Erasures(), calls, k)
			}
		}
	}

	bd, err := NewBatchDecoderI16(k, 8)
	if err != nil {
		t.Fatal(err)
	}
	bd.MaxIterations = 3
	rng := rand.New(rand.NewSource(5))
	_, l0, l1, l2 := batchTestVectors(t, rng, k, 2, 0)
	blocks := [][]byte{make([]byte, k), make([]byte, k), make([]byte, k)}
	l0, l1, l2 = append(l0, zero), append(l1, zero), append(l2, zero)
	_, failed, err := bd.Decode(blocks, l0, l1, l2, checkBlockCRC24B, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1<<2 {
		t.Fatalf("batch failure mask %#b, want only the erased lane 2", failed)
	}
}
