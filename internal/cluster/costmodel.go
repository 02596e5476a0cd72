// Package cluster models the commodity-server pool PRAN schedules baseband
// processing onto: a per-stage compute cost model *calibrated against the
// real DSP in internal/phy*, plus server and cluster abstractions whose
// capacities the controller allocates.
//
// The paper ran on a real cluster; our day-long, hundred-cell sweeps run on
// this calibrated model instead (DESIGN.md §2). Calibration measures the
// actual Go implementations (FFT, demodulation, turbo decoding, …) on the
// host at startup, so simulated costs track what the measured data plane
// would do on the same machine, keeping the experiment shapes transferable.
//
// Concurrency: CostModel is an immutable value after construction — its
// cost queries (AllocCost, AllocCostWorkers, SubframeCost, …) are pure and
// safe to call concurrently. Server and Cluster are plain mutable state
// owned by whoever constructs them (in practice the controller's single
// goroutine); they perform no internal locking. Calibrate runs measured
// loops on the calling goroutine and should not race other CPU-heavy work.
package cluster

import (
	"fmt"
	"math"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

// CostModel maps PHY work items to time on a reference core (seconds). All
// coefficients are per-unit costs measured by Calibrate.
type CostModel struct {
	// FFTPerButterfly is the cost of one FFT butterfly stage unit; an
	// n-point FFT costs FFTPerButterfly × n·log2(n).
	FFTPerButterfly float64
	// DemodPerREQPSK/16/64 is the LLR demodulation cost per resource
	// element for each constellation.
	DemodPerREQPSK  float64
	DemodPerRE16QAM float64
	DemodPerRE64QAM float64
	// DescramblePerBit is the per-coded-bit descrambling cost, including
	// the amortized Gold-sequence generation.
	DescramblePerBit float64
	// DematchPerBit is the soft de-rate-matching cost per coded bit.
	DematchPerBit float64
	// FusedPerREQPSK/16/64 is the all-in cost per resource element of the
	// fused decode front-end (phy.FrontEndFused), which replaces the three
	// staged sweeps (demodulate + descramble + de-rate-match) with one
	// word-oriented pass. Charged instead of — never in addition to — the
	// DemodPerRE*/DescramblePerBit/DematchPerBit coefficients when FrontEnd
	// is FrontEndFused.
	FusedPerREQPSK  float64
	FusedPerRE16QAM float64
	FusedPerRE64QAM float64
	// FusedVecPerREQPSK/16/64 is the fused front-end cost per resource
	// element with the AVX2 tile pipeline (phy.FrontEndAVX2() true): tile
	// demodulation and descrambling run 8 symbols per iteration in
	// assembly. On hosts without AVX2 the calibrator sets these equal to
	// the scalar FusedPerRE* coefficients. Charged instead of FusedPerRE*
	// when Vector is set.
	FusedVecPerREQPSK  float64
	FusedVecPerRE16QAM float64
	FusedVecPerRE64QAM float64
	// TurboPerBitIter is the turbo-decode cost per information bit per
	// full iteration with the float32 kernel's pure-Go SISO — the dominant
	// coefficient.
	TurboPerBitIter float64
	// TurboPerBitIterVec is the same coefficient with the float32 kernel's
	// AVX2 state-parallel SISO (phy.TurboF32AVX2() true). On hosts without
	// AVX2 the calibrator sets it equal to TurboPerBitIter. Charged instead
	// of TurboPerBitIter when Vector is set.
	TurboPerBitIterVec float64
	// TurboPerBitIterI16 is the same coefficient measured with the
	// quantized int16 kernel (phy.KernelInt16) on its pure-Go SISO.
	TurboPerBitIterI16 float64
	// TurboPerBitIterI16Vec is the int16 coefficient on the AVX2
	// state-parallel SISO, set equal to TurboPerBitIterI16 without AVX2 and
	// charged instead of it when Vector is set.
	TurboPerBitIterI16Vec float64
	// TurboPerBitIterI16Batch is the int16 coefficient measured with the
	// width-8 lockstep batch kernel (phy.BatchDecoderI16): the per-bit,
	// per-iteration, per-lane cost when eight same-size code blocks move
	// through the SISO pipeline together. Charged via the Batch field.
	TurboPerBitIterI16Batch float64
	// CRCPerBit is the CRC verification cost per bit.
	CRCPerBit float64
	// EncodePerBit is the downlink encode-chain cost per information bit.
	EncodePerBit float64
	// DispatchPerBlock is the synchronization cost of handing one code
	// block to a parallel decode worker (wake + join through the resident
	// goroutines of phy.ParallelDecoder). It only applies when a subframe's
	// service time is computed at parallelism > 1 (AllocCostWorkers).
	DispatchPerBlock float64

	// Kernel selects which turbo coefficient the cost queries use
	// (phy.KernelFloat32 — the zero value — or phy.KernelInt16), mirroring
	// dataplane.Config.DecodeKernel so provisioning answers track the data
	// plane's actual decode arithmetic. Use WithKernel to derive a model
	// for the other kernel.
	Kernel phy.DecodeKernel
	// FrontEnd selects which front-end coefficients the cost queries use
	// (phy.FrontEndFused — the zero value — or phy.FrontEndStaged),
	// mirroring dataplane.Config.FrontEnd. Use WithFrontEnd to derive a
	// model for the other front-end.
	FrontEnd phy.FrontEnd
	// Vector selects the AVX2 coefficients — FusedVecPerRE* for the fused
	// front-end and TurboPerBitIterVec / TurboPerBitIterI16Vec for the
	// single-block turbo kernels — mirroring the data plane's default of
	// vector kernels on AVX2 hosts unless phy.ProcOptions.NoVector is set.
	// It has no effect on the staged front-end or the lockstep batch
	// coefficient. Use WithVector to derive the other variant.
	Vector bool
	// Batch is the lockstep batch width the cost queries assume, mirroring
	// dataplane.Config.DecodeBatch (0 or 1 = scalar per-block decode). It
	// only affects the int16 kernel: the turbo coefficient interpolates
	// between the scalar and width-8 calibration points on 1/width — the
	// lockstep amortization is per-lane, so halving the width forfeits half
	// of the width-8 saving. Use WithBatch to derive a batched model.
	Batch int
	// IterCap, when > 0, caps the expected turbo iterations the cost
	// queries charge — mirroring the degradation ladder's per-cell
	// iteration cap (DegradationLevel.IterCap), so a degraded cell's
	// modelled demand shrinks to what its capped decode actually costs.
	// 0 (the default) leaves ExpectedTurboIterations unclamped. Use
	// WithIterCap (or DegradationLevel.Apply) to derive a capped model.
	IterCap int
}

// WithKernel returns a copy of the model whose cost queries charge turbo
// decoding at the given kernel's calibrated coefficient.
func (m CostModel) WithKernel(k phy.DecodeKernel) CostModel {
	m.Kernel = k
	return m
}

// WithFrontEnd returns a copy of the model whose cost queries charge the
// decode front-end at the given variant's calibrated coefficients.
func (m CostModel) WithFrontEnd(fe phy.FrontEnd) CostModel {
	m.FrontEnd = fe
	return m
}

// WithVector returns a copy of the model whose cost queries charge the
// fused front-end and the single-block turbo kernels at the vector (AVX2)
// or scalar coefficients.
func (m CostModel) WithVector(v bool) CostModel {
	m.Vector = v
	return m
}

// WithBatch returns a copy of the model whose cost queries charge turbo
// decoding at lockstep batch width w (int16 kernel only; see Batch).
func (m CostModel) WithBatch(w int) CostModel {
	m.Batch = w
	return m
}

// WithIterCap returns a copy of the model whose cost queries cap the
// expected turbo iterations at c (0 removes the cap).
func (m CostModel) WithIterCap(c int) CostModel {
	m.IterCap = c
	return m
}

// expectedIters is ExpectedTurboIterations clamped by the model's iteration
// cap — the per-allocation iteration count every cost query charges.
func (m CostModel) expectedIters(mcs phy.MCS, snrDB float64) float64 {
	it := ExpectedTurboIterations(mcs, snrDB)
	if m.IterCap > 0 && it > float64(m.IterCap) {
		it = float64(m.IterCap)
	}
	return it
}

// turboCoeff returns the per-bit-per-iteration turbo cost for the selected
// kernel and batch width.
func (m CostModel) turboCoeff() float64 {
	if m.Kernel != phy.KernelInt16 {
		if m.Vector {
			return m.TurboPerBitIterVec
		}
		return m.TurboPerBitIter
	}
	single := m.TurboPerBitIterI16
	if m.Vector {
		single = m.TurboPerBitIterI16Vec
	}
	w := m.Batch
	if w <= 1 {
		return single
	}
	if w >= 8 {
		return m.TurboPerBitIterI16Batch
	}
	// Hyperbolic interpolation between the single-block (w=1) and width-8
	// calibration points: the batch saving is per-lane, so the coefficient
	// tracks 1/w between the measured endpoints.
	lam := (1/float64(w) - 1.0/8) / (1 - 1.0/8)
	return lam*single + (1-lam)*m.TurboPerBitIterI16Batch
}

// DefaultCostModel returns coefficients representative of a ~3 GHz x86 core
// (used when calibration is skipped, e.g. in fast unit tests). Values are in
// seconds per unit. The model is scalar (Vector false); its vector turbo
// coefficients, charged only under WithVector(true), are TurboPerBitIter
// scaled by the ~8.5× the AVX2 float32 SISO measured over the float32
// kernel that value was taken from (BenchmarkTurboDecodeK6144), and ~0.8×
// of that for the AVX2 int16 SISO (BenchmarkTurboDecodeK6144Int16 against
// BenchmarkTurboDecodeK6144).
func DefaultCostModel() CostModel {
	return CostModel{
		FFTPerButterfly:         2.0e-9,
		DemodPerREQPSK:          15e-9,
		DemodPerRE16QAM:         25e-9,
		DemodPerRE64QAM:         45e-9,
		DescramblePerBit:        1.2e-9,
		DematchPerBit:           2.5e-9,
		FusedPerREQPSK:          11e-9,
		FusedPerRE16QAM:         20e-9,
		FusedPerRE64QAM:         33e-9,
		FusedVecPerREQPSK:       5e-9,
		FusedVecPerRE16QAM:      8e-9,
		FusedVecPerRE64QAM:      13e-9,
		TurboPerBitIter:         28e-9,
		TurboPerBitIterVec:      3.3e-9,
		TurboPerBitIterI16:      9e-9,
		TurboPerBitIterI16Vec:   2.6e-9,
		TurboPerBitIterI16Batch: 2.4e-9,
		CRCPerBit:               0.8e-9,
		EncodePerBit:            12e-9,
		DispatchPerBlock:        300e-9,
	}
}

// Validate checks that every coefficient is positive.
func (m CostModel) Validate() error {
	for _, v := range []float64{
		m.FFTPerButterfly, m.DemodPerREQPSK, m.DemodPerRE16QAM, m.DemodPerRE64QAM,
		m.DescramblePerBit, m.DematchPerBit,
		m.FusedPerREQPSK, m.FusedPerRE16QAM, m.FusedPerRE64QAM,
		m.FusedVecPerREQPSK, m.FusedVecPerRE16QAM, m.FusedVecPerRE64QAM,
		m.TurboPerBitIter, m.TurboPerBitIterVec, m.TurboPerBitIterI16, m.TurboPerBitIterI16Vec, m.TurboPerBitIterI16Batch,
		m.CRCPerBit, m.EncodePerBit, m.DispatchPerBlock,
	} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: non-positive cost coefficient: %w", phy.ErrBadParameter)
		}
	}
	if err := m.FrontEnd.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if m.Batch < 0 {
		return fmt.Errorf("cluster: negative batch width %d: %w", m.Batch, phy.ErrBadParameter)
	}
	if m.Batch > 1 && m.Kernel != phy.KernelInt16 {
		return fmt.Errorf("cluster: batch width %d requires the int16 kernel: %w", m.Batch, phy.ErrBadParameter)
	}
	if m.IterCap < 0 {
		return fmt.Errorf("cluster: negative turbo iteration cap %d: %w", m.IterCap, phy.ErrBadParameter)
	}
	return nil
}

// demodPerRE selects the per-RE demodulation coefficient.
func (m CostModel) demodPerRE(mod phy.Modulation) float64 {
	switch mod {
	case phy.QAM16:
		return m.DemodPerRE16QAM
	case phy.QAM64:
		return m.DemodPerRE64QAM
	default:
		return m.DemodPerREQPSK
	}
}

// fusedPerRE selects the per-RE fused front-end coefficient for the
// model's tile-kernel variant (vector vs scalar).
func (m CostModel) fusedPerRE(mod phy.Modulation) float64 {
	if m.Vector {
		switch mod {
		case phy.QAM16:
			return m.FusedVecPerRE16QAM
		case phy.QAM64:
			return m.FusedVecPerRE64QAM
		default:
			return m.FusedVecPerREQPSK
		}
	}
	switch mod {
	case phy.QAM16:
		return m.FusedPerRE16QAM
	case phy.QAM64:
		return m.FusedPerRE64QAM
	default:
		return m.FusedPerREQPSK
	}
}

// frontEndSec returns the decode front-end cost (everything between the
// received symbols and turbo-ready soft streams) for res resource elements
// carrying codedBits coded bits: one fused pass, or the staged
// demodulate + descramble + de-rate-match sweeps, per the model's FrontEnd.
func (m CostModel) frontEndSec(res, codedBits float64, mod phy.Modulation) float64 {
	if m.FrontEnd == phy.FrontEndFused {
		return res * m.fusedPerRE(mod)
	}
	return res*m.demodPerRE(mod) + codedBits*(m.DescramblePerBit+m.DematchPerBit)
}

// ExpectedTurboIterations models how many full turbo iterations a decode
// needs given the SNR margin above the MCS operating point: ample margin
// early-terminates after 1–2, operation at the edge takes most of the
// budget. Matches the EarlyCheck behaviour of the real decoder.
func ExpectedTurboIterations(mcs phy.MCS, snrDB float64) float64 {
	margin := snrDB - mcs.OperatingSNR()
	it := 5.5 - 1.3*margin
	if it < 1.5 {
		it = 1.5
	}
	if it > 8 {
		it = 8
	}
	return it
}

// CellOverhead returns the per-subframe, per-cell fixed cost: the 14 OFDM
// symbol FFTs (times antennas). Under the RF-IQ split this runs in the pool
// regardless of load — PRAN's floor cost per active cell.
func (m CostModel) CellOverhead(bw phy.Bandwidth, antennas int) time.Duration {
	n := float64(bw.FFTSize())
	per := m.FFTPerButterfly * n * math.Log2(n)
	total := per * phy.SymbolsPerSubframe * float64(antennas)
	return time.Duration(total * float64(time.Second))
}

// AllocCost returns the uplink processing cost of one UE allocation on a
// reference core: the decode front-end (one fused pass, or staged
// demodulation + descrambling + de-rate-matching) + turbo decoding + CRC.
func (m CostModel) AllocCost(a frame.Allocation) time.Duration {
	res := float64(a.NumPRB * phy.DataREsPerPRB)
	qm := float64(a.MCS.Modulation().BitsPerSymbol())
	codedBits := res * qm
	tbs, err := a.MCS.TransportBlockSize(a.NumPRB)
	if err != nil {
		return 0
	}
	infoBits := float64(tbs + 24)
	iters := m.expectedIters(a.MCS, a.SNRdB)
	sec := m.frontEndSec(res, codedBits, a.MCS.Modulation()) +
		infoBits*iters*m.turboCoeff() +
		infoBits*m.CRCPerBit
	return time.Duration(sec * float64(time.Second))
}

// AllocCostWorkers returns the uplink *service time* of one UE allocation
// when its decode fans across workers parallel decoders (the knob
// dataplane.Config.DecodeWorkers sets). What parallelizes depends on the
// front-end: with the staged pipeline only the turbo stage fans out —
// demodulation, descrambling, de-rate-matching and CRC stay serial on the
// owning worker — while the fused front-end runs per code block on the
// claiming worker, so front-end work overlaps turbo decoding and only the
// CRC remains serial (the Amdahl ceiling the fused path exists to lift).
// Fan-out is block-granular either way: the parallel makespan is
// ceil(C/effective) block times plus a per-handoff dispatch cost. With
// workers=1 this equals AllocCost. Note this is latency, not compute: total
// core-seconds consumed only grow (by the dispatch overhead); what shrinks
// is the time-to-deadline, which is what HARQ feasibility is about.
func (m CostModel) AllocCostWorkers(a frame.Allocation, workers int) time.Duration {
	if workers <= 1 {
		return m.AllocCost(a)
	}
	tbs, err := a.MCS.TransportBlockSize(a.NumPRB)
	if err != nil {
		return 0
	}
	seg, err := phy.Segment(tbs + 24)
	if err != nil {
		return 0
	}
	res := float64(a.NumPRB * phy.DataREsPerPRB)
	qm := float64(a.MCS.Modulation().BitsPerSymbol())
	codedBits := res * qm
	infoBits := float64(tbs + 24)
	iters := m.expectedIters(a.MCS, a.SNRdB)
	frontEnd := m.frontEndSec(res, codedBits, a.MCS.Modulation())
	serial := infoBits * m.CRCPerBit
	perBlockWork := infoBits * iters * m.turboCoeff()
	if m.FrontEnd == phy.FrontEndFused {
		perBlockWork += frontEnd
	} else {
		serial += frontEnd
	}
	eff := workers
	if seg.C < eff {
		eff = seg.C
	}
	batches := (seg.C + eff - 1) / eff
	perBlock := perBlockWork / float64(seg.C)
	sec := serial + perBlock*float64(batches) + m.DispatchPerBlock*float64(eff-1)
	return time.Duration(sec * float64(time.Second))
}

// SubframeCostWorkers returns the uplink service time of one cell subframe
// at the given intra-task parallelism: cell overhead (serial) plus every
// allocation's parallel service time. It is the provisioning-side mirror of
// running the pool with DecodeWorkers=workers.
func (m CostModel) SubframeCostWorkers(w frame.SubframeWork, bw phy.Bandwidth, antennas, workers int) time.Duration {
	total := m.CellOverhead(bw, antennas)
	for _, a := range w.Allocations {
		total += m.AllocCostWorkers(a, workers)
	}
	return total
}

// SubframeCost returns the total uplink cost of one cell subframe: cell
// overhead plus every allocation.
func (m CostModel) SubframeCost(w frame.SubframeWork, bw phy.Bandwidth, antennas int) time.Duration {
	total := m.CellOverhead(bw, antennas)
	for _, a := range w.Allocations {
		total += m.AllocCost(a)
	}
	return total
}

// CoreFraction converts a per-subframe cost into the fraction of one
// reference core the cell occupies in steady state (cost / 1 ms).
func CoreFraction(perSubframe time.Duration) float64 {
	return float64(perSubframe) / float64(time.Millisecond)
}

// UtilizationDemand estimates a cell's steady-state compute demand, in
// reference-core fractions, when it runs at PRB utilization util with a
// typical MCS and SNR margin. It is the bridge from coarse traffic traces
// (internal/traffic.DayTrace) to compute requirements in the pooling
// experiments.
func (m CostModel) UtilizationDemand(bw phy.Bandwidth, antennas int, util float64, mcs phy.MCS, snrDB float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	nprb := int(math.Round(util * float64(bw.PRB())))
	cost := m.CellOverhead(bw, antennas)
	if nprb > 0 {
		cost += m.AllocCost(frame.Allocation{
			RNTI: 1, FirstPRB: 0, NumPRB: nprb, MCS: mcs, SNRdB: snrDB,
		})
	}
	return CoreFraction(cost)
}
