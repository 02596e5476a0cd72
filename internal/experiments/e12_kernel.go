package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// E12KernelAblation measures what the quantized int16 max-log-MAP kernel
// buys and what it costs: per-MCS turbo-stage speedup over the float32
// kernel at a fully loaded 100-PRB subframe (single worker, so the ratio is
// pure kernel arithmetic, not parallelism), BLER of both kernels in the
// steepest part of the waterfall, and the deadline-feasibility frontier the
// recalibrated cost model predicts for each kernel. The BLER reference
// column runs the float32 kernel 0.2 dB lower: the int16 column staying at
// or below it is the "within 0.2 dB" acceptance criterion of the kernel,
// the same bound the phy property tests pin.
//
// The kernel comparison is scalar against scalar: both processors run with
// ProcOptions.NoVector, so the float32 column times the unrolled pure-Go
// state-parallel SISO, not its AVX2 twin. Two more columns time the default
// (vector) kernels: f32_vec_speedup_mcs* is the scalar-to-vector float32
// turbo ratio, and vec_speedup_mcs*_turbo is int16 over float32 with both
// on their AVX2 state-parallel SISOs — the saving the degradation ladder's
// int16 rung buys on a default pool. f32_avx2 is 0 on hosts or builds
// without the AVX2 SISOs, where those columns run the same pure-Go code.
func E12KernelAblation(quick bool) (Result, error) {
	mcsGrid := []phy.MCS{4, 13, 22, 27}
	reps := 3
	trials := 40
	if quick {
		mcsGrid = []phy.MCS{4, 27}
		reps = 3
		trials = 12
	}
	res := Result{
		ID:      "E12",
		Title:   "Decode-kernel ablation: int16 quantized vs float32 max-log-MAP",
		Header:  []string{"mcs", "turbo-f32(ms)", "turbo-i16(ms)", "turbo-speedup", "total-speedup", "turbo-f32-vec(ms)", "f32-vec-speedup", "turbo-i16-vec(ms)", "vec-speedup", "bler-i16", "bler-f32", "bler-f32@-0.2dB"},
		Metrics: map[string]float64{},
	}
	avx2 := 0.0
	if phy.TurboF32AVX2() {
		avx2 = 1
	}
	res.Metrics["f32_avx2"] = avx2
	for _, mcs := range mcsGrid {
		// Every speedup is a ratio between these configurations, so they
		// are sampled in two interleaved rounds merged with a stage-wise
		// min (see minStages): a slow window has to cover the same
		// configuration in both rounds to bias a ratio.
		cfgs := []phy.ProcOptions{
			{Workers: 1, Kernel: phy.KernelFloat32, FrontEnd: phy.FrontEndFused, NoVector: true},
			{Workers: 1, Kernel: phy.KernelInt16, FrontEnd: phy.FrontEndFused, NoVector: true},
			{Workers: 1, Kernel: phy.KernelFloat32, FrontEnd: phy.FrontEndFused},
			{Workers: 1, Kernel: phy.KernelInt16, FrontEnd: phy.FrontEndFused},
		}
		tm := make([]phy.StageTimings, len(cfgs))
		for round := 0; round < 2; round++ {
			for i, o := range cfgs {
				t, err := measureDecodeOpts(mcs, 100, reps, int64(mcs)*1201, o)
				if err != nil {
					return res, err
				}
				if round == 0 {
					tm[i] = t
				} else {
					tm[i] = minStages(tm[i], t)
				}
			}
		}
		tf, ti, tv, tiv := tm[0], tm[1], tm[2], tm[3]
		turboSpeedup := tf.TurboDecode.Seconds() / ti.TurboDecode.Seconds()
		totalSpeedup := tf.Total().Seconds() / ti.Total().Seconds()
		vecSpeedup := tf.TurboDecode.Seconds() / tv.TurboDecode.Seconds()
		vecKernelSpeedup := tv.TurboDecode.Seconds() / tiv.TurboDecode.Seconds()

		// BLER at the steepest point of the waterfall (op+0.5 dB, 6 PRB),
		// identical payloads and channel noise across the three columns.
		snr := mcs.OperatingSNR() + 0.5
		seed := 1300 + int64(mcs)
		bi, err := measureKernelBLER(mcs, 6, snr, trials, seed, phy.KernelInt16)
		if err != nil {
			return res, err
		}
		bf, err := measureKernelBLER(mcs, 6, snr, trials, seed, phy.KernelFloat32)
		if err != nil {
			return res, err
		}
		bref, err := measureKernelBLER(mcs, 6, snr-0.2, trials, seed, phy.KernelFloat32)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mcs),
			ms(tf.TurboDecode.Seconds()),
			ms(ti.TurboDecode.Seconds()),
			fmt.Sprintf("%.2fx", turboSpeedup),
			fmt.Sprintf("%.2fx", totalSpeedup),
			ms(tv.TurboDecode.Seconds()),
			fmt.Sprintf("%.2fx", vecSpeedup),
			ms(tiv.TurboDecode.Seconds()),
			fmt.Sprintf("%.2fx", vecKernelSpeedup),
			f(bi), f(bf), f(bref),
		})
		res.Metrics[fmt.Sprintf("speedup_mcs%d_turbo", mcs)] = turboSpeedup
		res.Metrics[fmt.Sprintf("speedup_mcs%d_total", mcs)] = totalSpeedup
		res.Metrics[fmt.Sprintf("f32_vec_speedup_mcs%d", mcs)] = vecSpeedup
		res.Metrics[fmt.Sprintf("vec_speedup_mcs%d_turbo", mcs)] = vecKernelSpeedup
		res.Metrics[fmt.Sprintf("bler_mcs%d_i16", mcs)] = bi
		res.Metrics[fmt.Sprintf("bler_mcs%d_f32", mcs)] = bf
		res.Metrics[fmt.Sprintf("bler_mcs%d_f32_minus02db", mcs)] = bref
	}

	// Cost-model mirror: the single-worker deadline-feasibility frontier
	// per kernel, on the reference-core coefficients.
	m := cluster.DefaultCostModel()
	frontierF32 := feasibleMCS(m, 1)
	frontierI16 := feasibleMCS(m.WithKernel(phy.KernelInt16), 1)
	res.Metrics["feasible_mcs_f32"] = float64(frontierF32)
	res.Metrics["feasible_mcs_i16"] = float64(frontierI16)
	res.Notes = append(res.Notes,
		"speedup at 100 PRB, single worker, op+3 dB — pure kernel arithmetic, no parallelism; turbo-f32/turbo-i16 both pure Go (NoVector), so turbo-speedup is scalar int16 vs scalar float32",
		fmt.Sprintf("turbo-f32-vec / turbo-i16-vec: the default kernels (host/build AVX2 state-parallel SISOs: %v); f32-vec-speedup = turbo-f32 / turbo-f32-vec; vec-speedup = turbo-f32-vec / turbo-i16-vec", phy.TurboF32AVX2()),
		"bler at op+0.5 dB / 6 PRB (mid-waterfall); bler-f32@-0.2dB is the accuracy budget: i16 within 0.2 dB means bler-i16 ≤ that column",
		fmt.Sprintf("model feasibility frontier at 1 worker (2 ms HARQ budget, reference core): MCS %d (float32) → MCS %d (int16)", frontierF32, frontierI16),
	)
	return res, nil
}

// measureKernelBLER runs trials independent transport blocks through AWGN
// at the given SNR with the given decode kernel and returns the block error
// rate (the experiments-side sibling of the phy test helper).
func measureKernelBLER(mcs phy.MCS, nprb int, snrDB float64, trials int, seed int64, kernel phy.DecodeKernel) (float64, error) {
	proc, err := phy.NewTransportProcessorKernel(mcs, nprb, 1, kernel)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	ch := phy.NewAWGNChannel(snrDB, seed+1)
	errsN := 0
	rx := make([]complex128, proc.NumSymbols())
	payload := make([]byte, proc.TransportBlockSize())
	for i := 0; i < trials; i++ {
		for j := range payload {
			payload[j] = byte(rng.Intn(2))
		}
		syms, err := proc.Encode(payload, uint16(i+1), 7, uint8(i%10), 0)
		if err != nil {
			return 0, err
		}
		copy(rx, syms)
		ch.Apply(rx)
		if _, err := proc.Decode(rx, ch.N0(), uint16(i+1), 7, uint8(i%10), 0, nil); err != nil {
			if !errors.Is(err, phy.ErrCRC) {
				return 0, err
			}
			errsN++
		}
	}
	return float64(errsN) / float64(trials), nil
}
