package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"

	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/fronthaul"
	"pran/internal/phy"
	"pran/internal/traffic"
)

// ulInputs fixes what an uplink workload's corpus contains. Everything here
// is a constant of the workload definition; the seed only picks the draws.
type ulInputs struct {
	cells     int
	bw        phy.Bandwidth
	ttis      int     // subframes per cell in the corpus; the replay loops over them
	startHour float64 // time of day the traffic generator starts at
	// profile returns cell i's traffic profile given its StandardMix class.
	profile func(c traffic.Class) traffic.CellProfile
	// retxShare is the share of first transmissions that are sent again
	// eight TTIs later (synchronous, non-adaptive LTE uplink HARQ: same
	// PRBs, same MCS, RV 2). Both copies go out retxDipDB below the UE's
	// SNR, as after a fade, so the retransmission leans on soft combining.
	retxShare float64
	retxDipDB float64
	// maxPRB, when non-zero, caps every new allocation's width (the
	// scheduler's per-UE PRB limit).
	maxPRB int
	// mcsSet, when non-empty (ascending), restricts link adaptation to a
	// few MCS values: each allocation takes the highest member not above
	// the MCS its SNR supports (the lowest member when none is), and its
	// SNR is set mcsMarginDB above that MCS's operating point plus the
	// generator's jitter within one MCS step.
	mcsSet      []phy.MCS
	mcsMarginDB float64
	// flash adds a FlashCrowd event on one seeded cell.
	flash bool
	// bfp ships block-floating-point frames; otherwise 16-bit fixed point.
	bfp bool
}

// bfpBlock and bfpMantissa are the fronthaul BFP operating point (12
// samples per exponent, 9-bit mantissas: ~1.7× compression).
const (
	bfpBlock    = 12
	bfpMantissa = 9
)

// restrictMCS maps a link-adapted MCS onto the inputs' (non-empty) MCS set.
func (in ulInputs) restrictMCS(m phy.MCS) phy.MCS {
	out := in.mcsSet[0]
	for _, c := range in.mcsSet {
		if c <= m {
			out = c
		}
	}
	return out
}

// compressor returns the fronthaul codec of the inputs (nil = fixed16).
func (in ulInputs) compressor() (*fronthaul.BFPCompressor, error) {
	if !in.bfp {
		return nil, nil
	}
	return fronthaul.NewBFPCompressor(bfpBlock, bfpMantissa)
}

// subframe is one cell's scheduled uplink subframe in the corpus: the
// scheduler's allocations (which the pool needs alongside the I/Q, as the
// MAC would supply them) and the transport blocks the UEs sent, kept to
// verify decoded payloads.
type subframe struct {
	work     frame.SubframeWork
	payloads [][]byte // one bit per byte, aligned with work.Allocations
	bits     []int    // transport block sizes, aligned with work.Allocations
}

// index returns the allocation index of rnti in the subframe, or -1.
func (s *subframe) index(rnti frame.RNTI) int {
	for i, a := range s.work.Allocations {
		if a.RNTI == rnti {
			return i
		}
	}
	return -1
}

// corpus is an uplink workload's generated input: per cell, the subframe
// schedule and the fronthaul byte stream carrying its I/Q.
type corpus struct {
	cells []frame.CellConfig
	sfs   [][]subframe // [cell][tti]
	links [][]byte     // [cell] serialized fronthaul frames, in TTI order
}

// bytes returns the total fronthaul bytes in the corpus.
func (c *corpus) bytes() int {
	n := 0
	for _, l := range c.links {
		n += len(l)
	}
	return n
}

// digest hashes the corpus's fronthaul links.
func (c *corpus) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, l := range c.links {
		h.Write(l)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// allocs returns the number of transport blocks in one pass over the corpus.
func (c *corpus) allocs() int {
	n := 0
	for _, cell := range c.sfs {
		for i := range cell {
			n += len(cell[i].work.Allocations)
		}
	}
	return n
}

// buildCorpus generates the workload's inputs from seed: traffic.Generator
// schedules, synthesized by one dataplane.RRHEmulator per cell and
// serialized to fronthaul frames. The same seed gives byte-identical links.
func buildCorpus(in ulInputs, seed int64) (*corpus, error) {
	classes := traffic.StandardMix(in.cells)
	profiles := make([]traffic.CellProfile, in.cells)
	for i, cl := range classes {
		profiles[i] = in.profile(cl)
	}
	gen, err := traffic.NewGenerator(in.bw, profiles, seed, in.startHour)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7 + 3))
	if in.flash {
		// The crowd forms a quarter into the corpus and holds for half of
		// it, so every replay loop sees calm, surge and decay.
		span := float64(in.ttis) / 1000
		ev := traffic.FlashCrowd{
			Cell: rng.Intn(in.cells), StartSec: span / 4,
			RampSec: span / 20, PlateauSec: span / 2, DecaySec: span / 20, Peak: 6,
		}
		sched, err := traffic.NewSchedule(profiles, in.startHour, ev)
		if err != nil {
			return nil, err
		}
		if err := gen.SetSchedule(sched, 0); err != nil {
			return nil, err
		}
	}
	comp, err := in.compressor()
	if err != nil {
		return nil, err
	}
	c := &corpus{
		cells: make([]frame.CellConfig, in.cells),
		sfs:   make([][]subframe, in.cells),
		links: make([][]byte, in.cells),
	}
	for ci := 0; ci < in.cells; ci++ {
		cfg := frame.CellConfig{ID: frame.CellID(ci), PCI: uint16((ci*37 + 11) % 504), Bandwidth: in.bw, Antennas: 1}
		c.cells[ci] = cfg
		rrh, err := dataplane.NewRRHEmulator(cfg, seed*1000+int64(ci))
		if err != nil {
			return nil, err
		}
		var link bytes.Buffer
		snd := fronthaul.NewSender(&link, comp)
		retxRNG := rand.New(rand.NewSource(seed*131 + int64(ci)))
		pending := make([]subframe, in.ttis) // retransmissions due per TTI
		c.sfs[ci] = make([]subframe, in.ttis)
		for t := 0; t < in.ttis; t++ {
			tti := frame.TTI(t)
			gw, err := gen.Subframe(ci, tti)
			if err != nil {
				return nil, err
			}
			sf := pending[t]
			sf.work.Cell, sf.work.TTI = cfg.ID, tti
			fresh := freshAllocations(gw.Allocations, sf.work.Allocations)
			for i := range fresh {
				a := &fresh[i]
				if in.maxPRB > 0 && a.NumPRB > in.maxPRB {
					a.NumPRB = in.maxPRB
				}
				if len(in.mcsSet) == 0 {
					continue
				}
				m := in.restrictMCS(a.MCS)
				a.SNRdB += m.OperatingSNR() - a.MCS.OperatingSNR() + in.mcsMarginDB
				a.MCS = m
			}
			payloads, err := rrh.RandomPayloads(frame.SubframeWork{Allocations: fresh})
			if err != nil {
				return nil, err
			}
			for i, a := range fresh {
				if t+8 < in.ttis && retxRNG.Float64() < in.retxShare {
					a.SNRdB -= in.retxDipDB
					fresh[i] = a
					re := a
					re.RV = 2
					next := &pending[t+8]
					next.work.Allocations = append(next.work.Allocations, re)
					next.payloads = append(next.payloads, payloads[i])
				}
			}
			sf.work.Allocations = append(sf.work.Allocations, fresh...)
			sf.payloads = append(sf.payloads, payloads...)
			for _, a := range sf.work.Allocations {
				tbs, err := a.TransportBlockSize()
				if err != nil {
					return nil, err
				}
				sf.bits = append(sf.bits, tbs)
			}
			samples, err := rrh.Emit(sf.work, sf.payloads)
			if err != nil {
				return nil, fmt.Errorf("cell %d tti %d: %w", ci, t, err)
			}
			if err := snd.SendSubframe(uint16(ci), uint64(t), samples); err != nil {
				return nil, err
			}
			c.sfs[ci][t] = sf
		}
		c.links[ci] = link.Bytes()
	}
	return c, nil
}

// freshAllocations returns the generator's new allocations that fit around
// the retransmissions already occupying the subframe: a retransmission
// keeps its PRBs, so a new allocation overlapping them, or one for a UE
// already retransmitting on that HARQ process, is not scheduled.
func freshAllocations(gen, retx []frame.Allocation) []frame.Allocation {
	var out []frame.Allocation
next:
	for _, a := range gen {
		for _, r := range retx {
			if a.RNTI == r.RNTI || (a.FirstPRB < r.FirstPRB+r.NumPRB && r.FirstPRB < a.FirstPRB+a.NumPRB) {
				continue next
			}
		}
		out = append(out, a)
	}
	return out
}
