package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	"pran/internal/dataplane"
	"pran/internal/phy"
	"pran/internal/traffic"
)

// ulBusy is the steady operating point: busy-hour StandardMix traffic on
// eight 3 MHz cells with a share of HARQ retransmissions, shipped as fixed16
// frames, offered at about a third of one float32 worker's capacity on the
// pran-agent default pool profile (EDF, AbandonLate, fused front-end,
// ladder controller off).
var ulBusy = ulSpec{
	inputs: ulInputs{
		cells:     8,
		bw:        phy.BW3MHz,
		ttis:      200,
		startHour: 13,
		profile:   traffic.DefaultProfile,
		retxShare: 0.1,
		retxDipDB: 2.5,
	},
	period: 120 * time.Millisecond,
	pool: dataplane.Config{
		Workers:       1,
		Policy:        dataplane.EDF,
		AbandonLate:   true,
		DeadlineScale: 120,
	},
	crcFloor: 0.75,
}

// ulDense is the high-density point: twenty-four 3 MHz cells carrying many
// narrow (at most 6 PRB) allocations from three MCS values plus a flash
// crowd, shipped as BFP frames, offered at about three quarters of the
// undegraded capacity of one int16 batching worker with the headroom ladder
// on. The per-TTI arrival burst keeps the ladder at its top rung throughout.
var ulDense = ulSpec{
	inputs: ulInputs{
		cells:     24,
		bw:        phy.BW3MHz,
		ttis:      100,
		startHour: 13,
		profile: func(c traffic.Class) traffic.CellProfile {
			p := traffic.DefaultProfile(c)
			p.PeakUtilization = 0.9
			p.SNRMeanDB = 19
			p.SNRStdDB = 1
			p.MeanUEsAtPeak = 6
			return p
		},
		maxPRB:      6,
		mcsSet:      []phy.MCS{14, 18, 22},
		mcsMarginDB: 0.5,
		flash:       true,
		bfp:         true,
	},
	period: 20 * time.Millisecond,
	pool: dataplane.Config{
		Workers:       1,
		Policy:        dataplane.EDF,
		AbandonLate:   true,
		DeadlineScale: 20,
		DecodeKernel:  phy.KernelInt16,
		DecodeBatch:   8,
		BatchTasks:    8,
		// The headroom controller samples the queue every Period. A period
		// that divides the TTI cadence (the default, half the budget, is
		// one TTI here) would sample the per-TTI arrival burst at one fixed
		// phase for the whole run, so the ladder would settle high or low
		// depending on where the run's first tick fell.
		Degrade: dataplane.DegradeConfig{Enable: true, Period: 1900 * time.Microsecond},
	},
}

// runUL runs an uplink workload: set-up, warm-up, then one measured window
// (untraced), or an untraced and a traced window back to back (traced run;
// the first gives the overhead baseline).
func runUL(spec ulSpec, name string, o runOpts) (outcome, error) {
	var first [sha256.Size]byte
	var out outcome
	s, setupS, err := timedSetups(setupRepeats, func() (*ulSetup, error) {
		s, err := newULSetup(spec, o.seed)
		if err != nil {
			return nil, err
		}
		if d := s.corpus.digest(); first == ([sha256.Size]byte{}) {
			first = d
		} else if d != first {
			out.violations = append(out.violations, "the same seed generated different corpora")
		}
		return s, nil
	}, (*ulSetup).close)
	if err != nil {
		return outcome{}, err
	}
	defer s.close()
	dur := secondsDur(o.seconds)
	phases := []phaseSpec{{dur: warmup}, {dur: dur, measured: true}}
	if o.trace {
		phases = append(phases, phaseSpec{dur: dur, measured: true, traced: true})
	}
	r, wins, err := s.replay(phases)
	if err != nil {
		return outcome{}, err
	}
	st := r.summarize(wins[0])
	out.attempted, out.failed = st.offered, st.failed
	out.e2e = st.e2e
	out.e2e["setup_s"] = setupS
	out.e2e["rss_mb"] = median(r.rss)
	if st.mismatches > 0 {
		out.violations = append(out.violations, fmt.Sprintf("%d CRC-passing transport blocks differ from the payload sent", st.mismatches))
	}
	if spec.crcFloor > 0 && st.layer["phy.crc_pass_frac"] < spec.crcFloor {
		out.violations = append(out.violations, fmt.Sprintf("CRC pass share %.3f below the floor %.2f", st.layer["phy.crc_pass_frac"], spec.crcFloor))
	}
	out.summary = fmt.Sprintf("tb_latency_p50_ms=%.4g tb_latency_p99_ms=%.4g tb_miss_frac=%.4g goodput_mbps=%.4g offered_mbps=%.4g corpus_mb=%.3g %s",
		st.e2e["latency_p50_ms"], st.e2e["latency_p99_ms"], 1-st.e2e["on_time_frac"], st.goodputMbps, st.offeredMbps,
		float64(s.corpus.bytes())/(1<<20), summaryLine(st.layer, "phy.crc_pass_frac", "dataplane.degrade_level_mean", "dataplane.abandoned_frac", "bench.driver_late_ms_p99"))
	if !o.trace {
		return out, nil
	}
	traced := r.summarize(wins[1])
	if traced.mismatches > 0 {
		out.violations = append(out.violations, fmt.Sprintf("%d CRC-passing transport blocks differ from the payload sent (traced window)", traced.mismatches))
	}
	out.attempted += traced.offered
	out.failed += traced.failed
	out.layer = traced.layer
	r.rootSpans(wins[1])
	addSelfTimes(out.layer, wins[1].spans)
	out.layer["trace.overhead_frac"] = frac(traced.meanLatencyMs, st.meanLatencyMs) - 1
	out.summary += " " + summaryLine(out.layer, "phy.stage_share", "dataplane.batch_width_mean", "dataplane.degrade_level_mean", "trace.overhead_frac")
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, o.seed))
	if err := wins[1].spans.write(path, map[string]any{"workload": name, "seed": o.seed, "seconds": o.seconds}); err != nil {
		return outcome{}, err
	}
	return out, nil
}
