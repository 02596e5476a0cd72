package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"pran/internal/dataplane"
	"pran/internal/fronthaul"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// ulSpec is an uplink workload: its corpus, the pool profile it runs on, and
// the open-loop cadence it is offered at. All fields are constants of the
// workload; nothing is calibrated to the host at run time.
type ulSpec struct {
	inputs ulInputs
	// period is the offered TTI cadence: every period, one subframe per
	// cell is due. It stands for LTE's 1 ms TTI stretched by the same
	// factor as the deadline (pool.DeadlineScale = period / 1 ms), so the
	// budget stays two TTIs long.
	period time.Duration
	pool   dataplane.Config
	// crcFloor is the lowest acceptable CRC pass share of decoded
	// transport blocks (0 = no floor).
	crcFloor float64
}

// warmup is replayed, and not counted, before any measured window: it
// builds the workers' cached processors and lets the ladder settle.
const warmup = time.Second

// scrapeEvery is the cadence at which the driver snapshots the pool's
// telemetry registry, the way an operator's collector would.
const scrapeEvery = time.Second

// subWindows is how many equal slices of a measured window the end-to-end
// metrics are computed over; the reported value is their median.
const subWindows = 10

// TB outcomes.
const (
	outOK uint8 = iota
	outCRC
	outAbandoned
	outError
)

// tbRec is one offered transport block's result. Each record is written
// once, by the pool worker that finished the task, and read by the driver
// only after the run's WaitGroup has drained — so the records need no
// further synchronization.
type tbRec struct {
	rv       uint8
	outcome  uint8
	level    uint8
	mismatch bool // CRC passed but the payload differs from the one sent
	iters    int16
	bits     int32
	enq      int64 // ns since the replay epoch
	start    int64 // 0 when abandoned
	fin      int64
}

// ulSetup is one set-up of an uplink workload: corpus, pool, cell
// processors and fronthaul receivers, ready to replay.
type ulSetup struct {
	spec   ulSpec
	corpus *corpus
	reg    *telemetry.Registry
	pool   *dataplane.Pool
	procs  []*dataplane.CellProcessor
	recvs  []*fronthaul.Receiver
}

// loopReader serves a byte slice as an endless stream, wrapping at the end:
// the in-memory fronthaul link a Receiver reads the replayed corpus from.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if len(l.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

func newULSetup(spec ulSpec, seed int64) (*ulSetup, error) {
	c, err := buildCorpus(spec.inputs, seed)
	if err != nil {
		return nil, err
	}
	cfg := spec.pool
	cfg.Telemetry = telemetry.New(cfg.Workers + 1)
	pool, err := dataplane.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	s := &ulSetup{spec: spec, corpus: c, reg: cfg.Telemetry, pool: pool}
	comp, err := spec.inputs.compressor()
	if err != nil {
		pool.Close()
		return nil, err
	}
	for i, cell := range c.cells {
		p, err := dataplane.NewCellProcessor(cell, pool)
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.procs = append(s.procs, p)
		s.recvs = append(s.recvs, fronthaul.NewReceiver(&loopReader{b: c.links[i]}, comp))
	}
	return s, nil
}

// window is one measured stretch of the replay, in TTI sequence numbers.
type window struct {
	k0, k1   int
	start    time.Time
	end      time.Time
	snap0    telemetry.Snapshot
	snap1    telemetry.Snapshot
	alloc0   uint64
	alloc1   uint64
	spans    *tracer
	recvUs   []float64
	ingestMs []float64
}

// ulReplay is one open-loop replay of a set-up corpus.
type ulReplay struct {
	s      *ulSetup
	epoch  time.Time
	recs   []tbRec
	next   int   // next free record
	tti0   []int // first record of each replay TTI
	late   []float64
	depth  []float64
	snapUs []float64
	rss    []float64 // resident set, sampled at every scrape
	wg     sync.WaitGroup
}

// phaseSpec is one stretch of the replay and whether it is traced and
// measured.
type phaseSpec struct {
	dur      time.Duration
	traced   bool
	measured bool
}

// replay offers the corpus in an open loop through the given phases and
// returns the measured windows once every offered task has finished.
func (s *ulSetup) replay(phases []phaseSpec) (*ulReplay, []*window, error) {
	period := s.spec.period
	total := 0
	counts := make([]int, len(phases))
	for i, ph := range phases {
		counts[i] = int(ph.dur / period)
		total += counts[i]
	}
	ttis := len(s.corpus.sfs[0])
	loops := total/ttis + 1
	r := &ulReplay{
		s:     s,
		recs:  make([]tbRec, loops*s.corpus.allocs()),
		tti0:  make([]int, total+1),
		late:  make([]float64, total),
		depth: make([]float64, total),
	}
	var wins []*window
	k := 0
	r.epoch = time.Now().Add(10 * time.Millisecond)
	lastScrape := r.epoch
	var ms runtime.MemStats
	for pi, ph := range phases {
		var w *window
		if ph.measured {
			w = &window{k0: k}
			if ph.traced {
				w.spans = newTracer(r.epoch)
			}
			w.start = r.epoch.Add(time.Duration(k) * period)
			w.snap0 = r.scrape()
			runtime.ReadMemStats(&ms)
			w.alloc0 = ms.TotalAlloc
		}
		for end := k + counts[pi]; k < end; k++ {
			due := r.epoch.Add(time.Duration(k) * period)
			waitUntil(due)
			now := time.Now()
			r.late[k] = now.Sub(due).Seconds() * 1e3
			if err := r.offer(k, w); err != nil {
				r.wg.Wait()
				return nil, nil, err
			}
			r.depth[k] = float64(s.pool.QueueLen())
			if now.Sub(lastScrape) >= scrapeEvery {
				lastScrape = now
				r.scrape()
			}
		}
		if w != nil {
			w.k1 = k
			w.end = r.epoch.Add(time.Duration(k) * period)
			wins = append(wins, w)
		}
	}
	r.tti0[total] = r.next
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return nil, nil, errors.New("pool did not finish the offered tasks within 60 s")
	}
	for _, w := range wins {
		// Counters and histograms cover the window plus the drain of its
		// last TTIs. Only the final window is free of later traffic, so
		// the window whose per-layer numbers are reported runs last.
		w.snap1 = r.scrape()
		runtime.ReadMemStats(&ms)
		w.alloc1 = ms.TotalAlloc
	}
	return r, wins, nil
}

// spinWindow is how long before a due time the driver stops sleeping and
// spins: a timer wake-up on a busy host can run a millisecond or more late,
// and that lateness belongs to the harness, not to the program under test.
const spinWindow = 2 * time.Millisecond

// waitUntil returns at t: it sleeps until spinWindow before t, then spins.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// scrape snapshots the pool registry and records how long it took.
func (r *ulReplay) scrape() telemetry.Snapshot {
	t0 := time.Now()
	snap := r.s.reg.Snapshot()
	r.snapUs = append(r.snapUs, time.Since(t0).Seconds()*1e6)
	r.rss = append(r.rss, rssMB())
	return snap
}

// offer receives and ingests TTI k's subframe on every cell.
func (r *ulReplay) offer(k int, w *window) error {
	s := r.s
	t := k % len(s.corpus.sfs[0])
	r.tti0[k] = r.next
	var tr *tracer
	if w != nil {
		tr = w.spans
	}
	for c, rc := range s.recvs {
		rs := time.Now()
		sf, err := rc.Recv()
		if err != nil {
			return fmt.Errorf("fronthaul recv cell %d: %w", c, err)
		}
		re := time.Now()
		if int(sf.Cell) != c || int(sf.TTI) != t {
			return fmt.Errorf("fronthaul frame for cell %d tti %d, want cell %d tti %d", sf.Cell, sf.TTI, c, t)
		}
		src := &s.corpus.sfs[c][t]
		n := len(src.work.Allocations)
		base := r.next
		r.next += n
		r.wg.Add(n)
		ingestKey := spanKey{Name: "dataplane.ingest", Trace: uint64(k), Sub: c}
		onDone := func(task *dataplane.Task) {
			defer r.wg.Done()
			i := src.index(task.Alloc.RNTI)
			if i < 0 {
				return // unreachable: tasks carry the corpus allocations
			}
			r.recs[base+i].record(task, src, i, r.epoch)
			if tr != nil {
				parent := ingestKey
				sub := c<<8 | i
				if !task.Started.IsZero() {
					tr.add(spanKey{"pool.queue", uint64(k), sub}, parent, task.Enqueued, task.Started)
					tr.add(spanKey{"pool.service", uint64(k), sub}, parent, task.Started, task.Finished)
				} else {
					tr.add(spanKey{"pool.queue", uint64(k), sub}, parent, task.Enqueued, task.Finished)
				}
			}
		}
		if err := s.procs[c].IngestSubframe(sf.Samples, src.work, onDone); err != nil {
			return fmt.Errorf("ingest cell %d tti %d: %w", c, t, err)
		}
		ie := time.Now()
		if w != nil {
			w.recvUs = append(w.recvUs, re.Sub(rs).Seconds()*1e6)
			w.ingestMs = append(w.ingestMs, ie.Sub(re).Seconds()*1e3)
			root := spanKey{Name: "bench.tti", Trace: uint64(k)}
			tr.add(spanKey{"fronthaul.recv", uint64(k), c}, root, rs, re)
			tr.add(ingestKey, root, re, ie)
		}
	}
	return nil
}

// record fills the record from a finished task and checks a CRC-passing
// payload against the transport block the UE sent.
func (rec *tbRec) record(t *dataplane.Task, src *subframe, i int, epoch time.Time) {
	rec.rv = t.Alloc.RV
	rec.level = uint8(t.Degrade)
	rec.iters = int16(t.TurboIterations)
	rec.bits = int32(src.bits[i])
	rec.enq = t.Enqueued.Sub(epoch).Nanoseconds()
	rec.fin = t.Finished.Sub(epoch).Nanoseconds()
	if !t.Started.IsZero() {
		rec.start = t.Started.Sub(epoch).Nanoseconds()
	}
	switch {
	case t.Err == nil:
		rec.outcome = outOK
		rec.mismatch = !bytes.Equal(t.Payload, src.payloads[i])
	case errors.Is(t.Err, phy.ErrCRC):
		rec.outcome = outCRC
	case errors.Is(t.Err, dataplane.ErrAbandoned):
		rec.outcome = outAbandoned
	default:
		rec.outcome = outError
	}
}

// ulStats are a window's measured numbers.
type ulStats struct {
	offered, failed, mismatches int
	e2e                         map[string]float64
	layer                       map[string]float64
	offeredMbps, goodputMbps    float64
	meanLatencyMs               float64
}

// e2eOf computes the end-to-end metrics over replay TTIs [k0, k1): every
// offered transport block is timed from its TTI's due time.
func (r *ulReplay) e2eOf(k0, k1 int) map[string]float64 {
	period := r.s.spec.period.Nanoseconds()
	budget := r.s.pool.Config().Budget().Nanoseconds()
	var lat, completion []float64
	var offeredBits, goodBits float64
	onTime := 0
	for k := k0; k < k1; k++ {
		due := int64(k) * period
		worst := int64(-1)
		for _, rec := range r.recs[r.tti0[k]:r.tti0[k+1]] {
			offeredBits += float64(rec.bits)
			l := rec.fin - due
			lat = append(lat, float64(l)/1e6)
			if l > worst {
				worst = l
			}
			if rec.outcome != outAbandoned && l <= budget {
				onTime++
				if rec.outcome == outOK && !rec.mismatch {
					goodBits += float64(rec.bits)
				}
			}
		}
		if worst >= 0 {
			completion = append(completion, float64(worst)/1e6)
		}
	}
	return map[string]float64{
		"on_time_frac":   frac(float64(onTime), float64(len(lat))),
		"goodput_frac":   frac(goodBits, offeredBits),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p99_ms": quantile(lat, 0.99),
		"completion_ms":  median(completion),
	}
}

// summarize computes a window's numbers: the end-to-end metrics as the
// median over subWindows equal slices of the window (so one stretch of
// host interference moves them less), the per-layer metrics over the
// whole window.
func (r *ulReplay) summarize(w *window) ulStats {
	s := r.s
	period := s.spec.period
	budget := s.pool.Config().Budget().Nanoseconds()
	st := ulStats{layer: map[string]float64{}}
	var subs []map[string]float64
	for i := 0; i < subWindows; i++ {
		n := w.k1 - w.k0
		subs = append(subs, r.e2eOf(w.k0+i*n/subWindows, w.k0+(i+1)*n/subWindows))
	}
	st.e2e = medianMetrics(subs)
	var lat, qwait, svc []float64
	var offeredBits, goodBits, svcNs, svcBits, busyNs float64
	groups := make(map[[2]int64]bool)
	var decoded, crcOK, retx, retxOK, abandoned, iters, levels int
	for k := w.k0; k < w.k1; k++ {
		due := int64(k) * period.Nanoseconds()
		for _, rec := range r.recs[r.tti0[k]:r.tti0[k+1]] {
			st.offered++
			offeredBits += float64(rec.bits)
			l := rec.fin - due
			lat = append(lat, float64(l)/1e6)
			levels += int(rec.level)
			switch rec.outcome {
			case outAbandoned:
				abandoned++
				continue
			case outError:
				st.failed++
			case outOK:
				crcOK++
				if rec.mismatch {
					st.mismatches++
				} else if l <= budget {
					goodBits += float64(rec.bits)
				}
			}
			decoded++
			// A joint dispatch stamps its whole group with one start and
			// finish; count each group's interval once.
			if iv := [2]int64{rec.start, rec.fin}; !groups[iv] {
				groups[iv] = true
				busyNs += float64(rec.fin - rec.start)
			}
			iters += int(rec.iters)
			qwait = append(qwait, float64(rec.start-rec.enq)/1e6)
			svc = append(svc, float64(rec.fin-rec.start)/1e6)
			svcNs += float64(rec.fin - rec.start)
			svcBits += float64(rec.bits)
			if rec.rv != 0 {
				retx++
				if rec.outcome == outOK {
					retxOK++
				}
			}
		}
	}
	secs := w.end.Sub(w.start).Seconds()
	st.offeredMbps = offeredBits / secs / 1e6
	st.goodputMbps = goodBits / secs / 1e6
	st.meanLatencyMs = mean(lat)

	d := telemetry.Delta(w.snap0, w.snap1)
	L := st.layer
	L["fronthaul.recv_us_p50"] = median(w.recvUs)
	L["fronthaul.bytes_per_sf"] = float64(s.corpus.bytes()) / float64(len(s.corpus.cells)*len(s.corpus.sfs[0]))
	L["dataplane.ingest_ms_p50"] = quantile(w.ingestMs, 0.5)
	L["dataplane.ingest_ms_p99"] = quantile(w.ingestMs, 0.99)
	L["bench.driver_late_ms_p99"] = quantile(append([]float64(nil), r.late[w.k0:w.k1]...), 0.99)
	L["dataplane.alloc_bytes_per_tb"] = frac(float64(w.alloc1-w.alloc0), float64(st.offered))
	L["dataplane.queue_wait_ms_p50"] = quantile(qwait, 0.5)
	L["dataplane.queue_wait_ms_p99"] = quantile(qwait, 0.99)
	L["dataplane.queue_depth_p99"] = quantile(append([]float64(nil), r.depth[w.k0:w.k1]...), 0.99)
	L["dataplane.abandoned_frac"] = frac(float64(abandoned), float64(st.offered))
	L["dataplane.service_ms_p50"] = quantile(svc, 0.5)
	L["dataplane.service_ms_p99"] = quantile(svc, 0.99)
	L["dataplane.busy_frac"] = frac(busyNs/1e9, secs*float64(s.spec.pool.Workers))
	if h, ok := d.Histogram(dataplane.MetricBatchWidth); ok {
		L["dataplane.batch_width_mean"] = frac(h.State.Sum, float64(h.State.Count))
	}
	L["dataplane.degrade_level_mean"] = frac(float64(levels), float64(st.offered))
	stageUs := func(name string) float64 {
		if h, ok := d.Histogram(name); ok && h.State.Count > 0 {
			return h.Quantile(0.5) * 1e6
		}
		return 0
	}
	L["phy.frontend_us_p50"] = stageUs(dataplane.MetricStageFrontEnd)
	L["phy.turbo_us_p50"] = stageUs(dataplane.MetricStageTurbo)
	L["phy.crc_us_p50"] = stageUs(dataplane.MetricStageCRC)
	var stageSum, procSum float64
	for _, name := range []string{dataplane.MetricStageFrontEnd, dataplane.MetricStageTurbo, dataplane.MetricStageCRC} {
		if h, ok := d.Histogram(name); ok {
			stageSum += h.State.Sum
		}
	}
	if h, ok := d.Histogram(dataplane.MetricProcTime); ok {
		procSum = h.State.Sum
	}
	L["phy.stage_share"] = frac(stageSum, procSum)
	L["phy.turbo_iters_per_tb"] = frac(float64(iters), float64(decoded))
	L["phy.ns_per_bit"] = frac(svcNs, svcBits)
	L["phy.crc_pass_frac"] = frac(float64(crcOK), float64(decoded))
	L["harq.combine_ok_frac"] = frac(float64(retxOK), float64(retx))
	state := 0
	for _, p := range s.procs {
		state += p.HARQ().StateBytes()
	}
	L["harq.state_kb"] = float64(state) / 1024
	L["telemetry.snapshot_us"] = median(append([]float64(nil), r.snapUs...))
	return st
}

// rootSpans adds each traced TTI's root span, from its due time until its
// last transport block finished.
func (r *ulReplay) rootSpans(w *window) {
	period := r.s.spec.period
	for k := w.k0; k < w.k1; k++ {
		due := r.epoch.Add(time.Duration(k) * period)
		end := due
		for _, rec := range r.recs[r.tti0[k]:r.tti0[k+1]] {
			if f := r.epoch.Add(time.Duration(rec.fin)); f.After(end) {
				end = f
			}
		}
		w.spans.add(spanKey{Name: "bench.tti", Trace: uint64(k)}, spanKey{}, due, end)
	}
}

// close stops the set-up's pool.
func (s *ulSetup) close() { s.pool.Close() }
