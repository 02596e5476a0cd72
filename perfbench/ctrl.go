package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
	"pran/internal/node"
	"pran/internal/phy"
	"pran/internal/telemetry"
	"pran/internal/traffic"
)

// ctrl-churn constants: a real ControllerNode on loopback TCP managing
// ctrlCells cells for ctrlStubs protocol-faithful stub agents. Demand is
// sized so the whole city fits one stub at rest (half its cores) and needs
// both during a surge (1.3 stubs' worth), so every surge and every relief
// moves cells between the stubs.
const (
	ctrlCells     = 3000
	ctrlStubs     = 2
	stubCores     = 64
	baseDemand    = 0.5 * stubCores // cores, summed over all cells
	surgeDemand   = 1.3 * stubCores
	surgeShare    = 8 // one cell in surgeShare joins each flash crowd
	ctrlPeriod    = 20 * time.Millisecond
	ctrlHeartbeat = 100 * time.Millisecond
	// stepGap separates demand steps; each step's reactions finish well
	// within it.
	stepGap = 400 * time.Millisecond
	// reactBudget is the reaction latency a placement push must arrive
	// within to count as on time.
	reactBudget = 10 * ctrlPeriod
	// coldShare of the run repeats cold starts; the rest runs demand steps.
	coldShare = 0.4
	// roundOffset is how far past a control-round tick cold-start demand
	// and demand steps are applied.
	roundOffset = ctrlPeriod / 10
	// scrapeGap is the cadence of the timed cluster-wide telemetry scrapes.
	scrapeGap     = 250 * time.Millisecond
	scrapeTimeout = 2 * time.Second
	// ctrlSetupRepeats is higher than the uplink workloads' setupRepeats:
	// building the demand plan takes about 10 ms, short enough that one
	// scheduling hiccup moves a median of five.
	ctrlSetupRepeats = 21
)

// ctrlConfig is the controller configuration of the workload: reactive
// scaling on unsmoothed demand, first-fit-decreasing placement, and a
// one-round scale-down so a relief step is acted on at once.
func ctrlConfig() node.ControllerConfig {
	cfg := controller.DefaultConfig()
	cfg.Mode = controller.Reactive
	cfg.MonitorAlpha = 1
	cfg.Scale = &controller.ScalePolicy{Headroom: 0.2, DownFactor: 0.7, DownRounds: 1}
	cells := make([]node.CellSpecNet, ctrlCells)
	for i := range cells {
		cells[i] = node.CellSpecNet{ID: frame.CellID(i), PCI: uint16(i % 504), Bandwidth: phy.BW1_4MHz, Antennas: 1}
	}
	return node.ControllerConfig{
		Controller:        cfg,
		Cells:             cells,
		Period:            ctrlPeriod,
		HeartbeatInterval: ctrlHeartbeat,
		LeaseMisses:       50,
		Shards:            4,
		SendQueue:         2 * ctrlCells,
	}
}

// demandPlan is the load generator's table: per-cell demand (millicores)
// at cold start and after each step.
type demandPlan struct {
	base  []uint32
	steps [][]uint32
}

// buildDemandPlan derives the demand table from seed: StandardMix cell
// profiles at a fixed hour, reshaped at each step by a traffic.Schedule of
// FlashCrowd groups (on for one step, held for one, off for one) and a
// MobilityWave sweeping a seeded corridor. The seed picks the cells; the
// totals are constants, so every seed moves a similar number of cells.
func buildDemandPlan(seed int64, nSteps int) (*demandPlan, error) {
	profiles := make([]traffic.CellProfile, ctrlCells)
	for i, c := range traffic.StandardMix(ctrlCells) {
		profiles[i] = traffic.DefaultProfile(c)
	}
	const startHour = 13
	rng := rand.New(rand.NewSource(seed))
	step := stepGap.Seconds()
	var events []traffic.Event
	// One flash crowd group per surge, over a fresh seeded cell set.
	calm, err := traffic.NewSchedule(profiles, startHour)
	if err != nil {
		return nil, err
	}
	u0 := calm.Utilizations(0)
	base0 := 0.0
	for _, u := range u0 {
		base0 += u
	}
	for k := 1; k < nSteps; k += 4 {
		cells := rng.Perm(ctrlCells)[:ctrlCells/surgeShare]
		groupBase := 0.0
		for _, c := range cells {
			groupBase += u0[c]
		}
		// Peak multiplier that lifts the total from base to surge demand.
		peak := 1 + (surgeDemand/baseDemand-1)*base0/groupBase
		for _, c := range cells {
			events = append(events, traffic.FlashCrowd{
				Cell: c, StartSec: float64(k)*step - step/4, PlateauSec: 2 * step, Peak: peak,
			})
		}
	}
	corridor := rng.Perm(ctrlCells)[:ctrlCells/4]
	events = append(events, traffic.MobilityWave{
		Path: corridor, StartSec: 0, CellsPerSec: float64(len(corridor)) / (float64(nSteps) * step),
		WidthCells: 40, Fraction: 0.6,
	})
	sched, err := traffic.NewSchedule(profiles, startHour, events...)
	if err != nil {
		return nil, err
	}
	scale := baseDemand * 1000 / base0 // millicores per unit of utilization
	toMilli := func(u []float64) []uint32 {
		out := make([]uint32, len(u))
		for i, v := range u {
			out[i] = uint32(v*scale + 0.5)
		}
		return out
	}
	p := &demandPlan{base: toMilli(u0)}
	for k := 0; k < nSteps; k++ {
		p.steps = append(p.steps, toMilli(sched.Utilizations(float64(k)*step)))
	}
	return p, nil
}

// stub is a protocol-faithful agent without a data plane: it registers,
// heartbeats, reports the demand of the cells it holds from the load
// generator's table, and enacts assignments by bookkeeping. Its reader
// goroutine owns the connection's receive side; the reporter goroutine
// sends heartbeats and load reports.
type stub struct {
	id     uint32
	client *ctrlproto.Client
	demand []atomic.Uint32 // the load generator's table, shared by all stubs
	held   *atomic.Int64   // cells held across all stubs
	full   chan struct{}   // closed when held first reaches ctrlCells
	once   *sync.Once
	tr     *tracer       // nil when untraced
	cur    *atomic.Value // spanKey of the cold start or step in progress
	reg    *telemetry.Registry

	mu        sync.Mutex
	cells     map[uint16]bool
	reactions []time.Time // arrival of every AssignCell/RemoveCell
	lastFull  time.Time   // when this stub's enactment made held reach ctrlCells
	errs      int

	report chan uint64 // step trace IDs to report demand for
	stop   chan struct{}
	wg     sync.WaitGroup
}

func dialStub(addr string, id uint32, c *cluster, tr *tracer) (*stub, error) {
	cl, err := ctrlproto.DialAgent(addr, id, stubCores, 1000)
	if err != nil {
		return nil, err
	}
	s := &stub{
		id: id, client: cl, demand: c.demand, held: &c.held, full: c.full, once: &c.once, tr: tr, cur: &c.cur,
		reg:    telemetry.New(1),
		cells:  make(map[uint16]bool),
		report: make(chan uint64, 1),
		stop:   make(chan struct{}),
	}
	if err := cl.SendCellOwned(nil); err != nil {
		_ = cl.Close()
		return nil, err
	}
	s.wg.Add(2)
	go s.readLoop()
	go s.reportLoop()
	return s, nil
}

// readLoop enacts controller commands until the connection closes.
func (s *stub) readLoop() {
	defer s.wg.Done()
	for {
		m, err := s.client.Receive()
		if err != nil {
			return
		}
		at := time.Now()
		switch t := m.(type) {
		case *ctrlproto.AssignCell:
			s.enact(t.Cell, t.Seq, true, at)
		case *ctrlproto.RemoveCell:
			s.enact(t.Cell, t.Seq, false, at)
		case *ctrlproto.MigrateState:
			s.ack(t.Seq)
		case *ctrlproto.StatsRequest:
			s.mu.Lock()
			s.reg.Gauge("stub.cells").Set(int64(len(s.cells)))
			s.mu.Unlock()
			data, err := s.reg.Snapshot().Encode()
			if err == nil {
				err = s.client.SendStatsReport(t.Seq, data)
			}
			if err != nil {
				s.countErr()
			}
		}
	}
}

// enact applies one placement command and acknowledges it.
func (s *stub) enact(cell uint16, seq uint32, assign bool, at time.Time) {
	s.mu.Lock()
	changed := s.cells[cell] != assign
	if assign {
		s.cells[cell] = true
	} else {
		delete(s.cells, cell)
	}
	s.reactions = append(s.reactions, at)
	s.mu.Unlock()
	s.ack(seq)
	done := time.Now()
	if changed {
		delta := int64(1)
		if !assign {
			delta = -1
		}
		if s.held.Add(delta) == ctrlCells && assign {
			s.once.Do(func() {
				s.mu.Lock()
				s.lastFull = done
				s.mu.Unlock()
				close(s.full)
			})
		}
	}
	if s.tr != nil {
		parent := s.cur.Load().(spanKey)
		s.tr.add(spanKey{"stub.enact", parent.Trace, int(s.id)<<16 | int(cell)}, parent, at, done)
	}
}

func (s *stub) ack(seq uint32) {
	if err := s.client.Ack(seq); err != nil {
		s.countErr()
	}
}

func (s *stub) countErr() {
	s.mu.Lock()
	s.errs++
	s.mu.Unlock()
}

// reportLoop sends heartbeats at the controller's interval and, on each
// demand step, one load report per held cell.
func (s *stub) reportLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.client.Interval)
	defer ticker.Stop()
	var tti uint64
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			tti++
			if err := s.client.Heartbeat(&ctrlproto.Heartbeat{TTI: tti}); err != nil {
				return
			}
		case trace := <-s.report:
			t0 := time.Now()
			s.mu.Lock()
			owned := make([]uint16, 0, len(s.cells))
			for c := range s.cells {
				owned = append(owned, c)
			}
			s.mu.Unlock()
			for _, c := range owned {
				if err := s.client.SendCellLoad(c, s.demand[c].Load(), tti); err != nil {
					s.countErr()
					return
				}
			}
			if s.tr != nil {
				s.tr.add(spanKey{"ctrlproto.report", trace, int(s.id)}, spanKey{Name: "bench.step", Trace: trace}, t0, time.Now())
			}
		}
	}
}

// close stops both loops and the connection and waits for them.
func (s *stub) close() {
	close(s.stop)
	_ = s.client.Close()
	s.wg.Wait()
}

// snapshot returns the stub's held cells, reactions and error count.
func (s *stub) snapshot() (map[uint16]bool, []time.Time, int, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cells := make(map[uint16]bool, len(s.cells))
	for c := range s.cells {
		cells[c] = true
	}
	return cells, append([]time.Time(nil), s.reactions...), s.errs, s.lastFull
}

// cluster is one controller node plus its stubs.
type cluster struct {
	cn     *node.ControllerNode
	reg    *telemetry.Registry
	stubs  []*stub
	demand []atomic.Uint32
	held   atomic.Int64
	full   chan struct{}
	once   sync.Once
	cur    atomic.Value // spanKey the stubs' enact spans hang under
	served chan struct{}
	// epoch is when the node started serving; its control loop ticks
	// every ctrlPeriod from then on.
	epoch time.Time
}

// startCluster starts a controller node and registers the stubs. Dial
// spans go under root when tr is non-nil.
func startCluster(demand []atomic.Uint32, tr *tracer, root spanKey) (*cluster, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := ctrlConfig()
	cfg.Telemetry = telemetry.New(ctrlStubs + 1)
	cn, err := node.NewControllerNode(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	c := &cluster{cn: cn, reg: cfg.Telemetry, demand: demand, full: make(chan struct{}), served: make(chan struct{})}
	c.cur.Store(root)
	c.epoch = time.Now()
	go func() {
		defer close(c.served)
		_ = cn.Serve()
	}()
	for i := 0; i < ctrlStubs; i++ {
		t0 := time.Now()
		s, err := dialStub(cn.Addr().String(), uint32(i+1), c, tr)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial stub %d: %w", i+1, err)
		}
		tr.add(spanKey{"ctrlproto.dial", root.Trace, i}, root, t0, time.Now())
		c.stubs = append(c.stubs, s)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cn.NumAgents() < ctrlStubs {
		if time.Now().After(deadline) {
			c.close()
			return nil, errors.New("stubs never all registered")
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// nextRound returns the first instant at least after t that lies offset
// past one of the node's control-round ticks. Cold starts and demand steps
// are placed at a fixed offset into the round, so the timer phase between
// a change and the round that sees it is a constant of the workload rather
// than a uniform random wait.
func (c *cluster) nextRound(t time.Time, offset time.Duration) time.Time {
	n := t.Sub(c.epoch)/ctrlPeriod + 1
	return c.epoch.Add(n*ctrlPeriod + offset)
}

// observeAll reports every cell's current demand to the controller, as the
// load generator does at a cold start.
func (c *cluster) observeAll() {
	ctl := c.cn.Controller()
	for i := range c.demand {
		ctl.ObserveCell(frame.CellID(i), float64(c.demand[i].Load())/1000)
	}
}

// awaitFull waits until every cell is held and returns when the last
// assignment was acknowledged.
func (c *cluster) awaitFull(timeout time.Duration) (time.Time, error) {
	select {
	case <-c.full:
	case <-time.After(timeout):
		return time.Time{}, fmt.Errorf("only %d of %d cells assigned after %v", c.held.Load(), ctrlCells, timeout)
	}
	var last time.Time
	for _, s := range c.stubs {
		if _, _, _, t := s.snapshot(); t.After(last) {
			last = t
		}
	}
	return last, nil
}

// checkOwnership verifies that every cell is held by exactly one stub.
func (c *cluster) checkOwnership() error {
	count := make([]int, ctrlCells)
	for _, s := range c.stubs {
		cells, _, _, _ := s.snapshot()
		for cell := range cells {
			if int(cell) >= ctrlCells {
				return fmt.Errorf("stub %d holds unknown cell %d", s.id, cell)
			}
			count[cell]++
		}
	}
	for cell, n := range count {
		if n != 1 {
			return fmt.Errorf("cell %d held by %d stubs", cell, n)
		}
	}
	return nil
}

// errs sums the stubs' protocol errors.
func (c *cluster) errs() int {
	n := 0
	for _, s := range c.stubs {
		_, _, e, _ := s.snapshot()
		n += e
	}
	return n
}

// close stops the stubs and the controller and waits for them.
func (c *cluster) close() {
	for _, s := range c.stubs {
		s.close()
	}
	_ = c.cn.Close()
	<-c.served
}

// setDemand loads a demand vector into the shared table.
func setDemand(demand []atomic.Uint32, v []uint32) {
	for i, d := range v {
		demand[i].Store(d)
	}
}

// runCtrl runs ctrl-churn: repeated cold starts, then demand steps on one
// long-lived controller.
func runCtrl(o runOpts) (outcome, error) {
	total := secondsDur(o.seconds)
	coldDur := time.Duration(coldShare * float64(total))
	nSteps := int((total - coldDur) / stepGap)
	if nSteps < 4 {
		nSteps = 4
	}
	var plan *demandPlan
	_, setupS, err := timedSetups(ctrlSetupRepeats, func() (*demandPlan, error) {
		p, err := buildDemandPlan(o.seed, nSteps)
		plan = p
		return p, err
	}, func(*demandPlan) {})
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	measure := func(tr *tracer) (ctrlStats, error) {
		return ctrlRun(plan, coldDur, tr, &out)
	}
	st, err := measure(nil)
	if err != nil {
		return outcome{}, err
	}
	out.e2e = st.e2e
	out.e2e["setup_s"] = setupS
	out.e2e["rss_mb"] = st.rssMB
	out.summary = fmt.Sprintf("ctrl_converge_ms=%.4g ctrl_react_p50_ms=%.4g ctrl_react_p99_ms=%.4g cold_starts=%d steps=%d reactions=%d",
		st.e2e["completion_ms"], st.e2e["latency_p50_ms"], st.e2e["latency_p99_ms"], st.colds, nSteps, st.reactions)
	if !o.trace {
		return out, nil
	}
	tr := newTracer(time.Now())
	traced, err := measure(tr)
	if err != nil {
		return outcome{}, err
	}
	out.layer = traced.layer
	addSelfTimes(out.layer, tr)
	out.layer["trace.overhead_frac"] = frac(traced.meanReactMs, st.meanReactMs) - 1
	out.summary += " " + summaryLine(out.layer, "controller.round_ms_p50", "ctrlproto.pushes_per_s", "node.scrape_ms_p50", "trace.overhead_frac")
	path := filepath.Join(o.traceDir, fmt.Sprintf("ctrl-churn-seed%d.jsonl", o.seed))
	if err := tr.write(path, map[string]any{"workload": "ctrl-churn", "seed": o.seed, "seconds": o.seconds}); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// ctrlStats are one ctrl-churn pass's numbers.
type ctrlStats struct {
	e2e         map[string]float64
	layer       map[string]float64
	colds       int
	reactions   int
	meanReactMs float64
	rssMB       float64 // median resident set over the demand steps
}

// ctrlRun performs one pass: cold starts for coldDur, then the plan's
// demand steps. Output-check failures and the attempted/failed counts
// accumulate into out.
func ctrlRun(plan *demandPlan, coldDur time.Duration, tr *tracer, out *outcome) (ctrlStats, error) {
	st := ctrlStats{layer: map[string]float64{}}
	demand := make([]atomic.Uint32, ctrlCells)
	var converge []float64
	var coldAssigns float64
	var coldTime float64
	var leaseExpiries uint64

	// Phase A: repeated cold starts.
	coldEnd := time.Now().Add(coldDur)
	for i := 0; len(converge) < 3 || time.Now().Before(coldEnd); i++ {
		root := spanKey{Name: "bench.converge", Trace: uint64(1<<32 + i)}
		setDemand(demand, plan.base)
		begin := time.Now()
		c, err := startCluster(demand, tr, root)
		if err != nil {
			return st, err
		}
		time.Sleep(time.Until(c.nextRound(time.Now(), roundOffset)))
		t0 := time.Now()
		c.observeAll()
		t1 := time.Now()
		tr.add(spanKey{"controller.observe", root.Trace, 0}, root, t0, t1)
		last, err := c.awaitFull(30 * time.Second)
		if err != nil {
			c.close()
			return st, err
		}
		converge = append(converge, last.Sub(t1).Seconds()*1e3)
		tr.add(root, spanKey{}, begin, last)
		if err := c.checkOwnership(); err != nil {
			out.violations = append(out.violations, "after cold start: "+err.Error())
		}
		snap := c.reg.Snapshot()
		coldAssigns += float64(snap.Counter("controller.assigns_sent"))
		coldTime += last.Sub(t1).Seconds()
		leaseExpiries += snap.Counter("controller.lease_expiries")
		out.failed += c.errs()
		out.attempted++
		c.close()
	}
	st.colds = len(converge)

	// Phase B: demand steps on one controller, with a concurrent scraper.
	setDemand(demand, plan.base)
	root := spanKey{Name: "bench.converge", Trace: 1<<32 - 1}
	begin := time.Now()
	c, err := startCluster(demand, tr, root)
	if err != nil {
		return st, err
	}
	defer c.close()
	c.observeAll()
	last, err := c.awaitFull(30 * time.Second)
	if err != nil {
		return st, err
	}
	tr.add(root, spanKey{}, begin, last)
	time.Sleep(5 * ctrlPeriod) // let the cold start's last round settle
	snap0 := c.reg.Snapshot()
	var scrapeMs, rss []float64
	stopScrape := make(chan struct{})
	scrapeDone := make(chan error, 1)
	go func() {
		ticker := time.NewTicker(scrapeGap)
		defer ticker.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopScrape:
				scrapeDone <- nil
				return
			case <-ticker.C:
			}
			t0 := time.Now()
			_, reported, err := c.cn.ScrapeTelemetry(scrapeTimeout)
			t1 := time.Now()
			if err != nil || reported != ctrlStubs {
				scrapeDone <- fmt.Errorf("scrape %d: %d of %d stubs answered: %v", i, reported, ctrlStubs, err)
				return
			}
			scrapeMs = append(scrapeMs, t1.Sub(t0).Seconds()*1e3)
			rss = append(rss, rssMB())
			tr.add(spanKey{Name: "node.scrape", Trace: uint64(2<<32 + i)}, spanKey{}, t0, t1)
		}
	}()
	stepStart := c.nextRound(time.Now().Add(stepGap/4), roundOffset)
	stepAt := make([]time.Time, len(plan.steps))
	for k, v := range plan.steps {
		at := stepStart.Add(time.Duration(k) * stepGap)
		time.Sleep(time.Until(at))
		stepAt[k] = time.Now()
		c.cur.Store(spanKey{Name: "bench.step", Trace: uint64(k)})
		setDemand(demand, v)
		for _, s := range c.stubs {
			s.report <- uint64(k)
		}
	}
	time.Sleep(stepGap)
	close(stopScrape)
	if err := <-scrapeDone; err != nil {
		return st, err
	}
	snap1 := c.reg.Snapshot()
	st.rssMB = median(rss)
	if err := c.checkOwnership(); err != nil {
		out.violations = append(out.violations, "after the last demand step: "+err.Error())
	}

	// Attribute every reaction after the first step to the latest step
	// before it.
	stepLat := make([][]float64, len(stepAt))
	stepEnd := make([]time.Time, len(stepAt))
	for _, s := range c.stubs {
		_, rs, _, _ := s.snapshot()
		for _, at := range rs {
			k := sort.Search(len(stepAt), func(i int) bool { return stepAt[i].After(at) }) - 1
			if k < 0 {
				continue
			}
			stepLat[k] = append(stepLat[k], at.Sub(stepAt[k]).Seconds()*1e3)
			if at.After(stepEnd[k]) {
				stepEnd[k] = at
			}
		}
	}
	for k := range stepAt {
		if !stepEnd[k].IsZero() {
			tr.add(spanKey{Name: "bench.step", Trace: uint64(k)}, spanKey{}, stepAt[k], stepEnd[k])
		}
	}
	// The end-to-end metrics are computed per surge cycle (four steps) and
	// reported as the median over cycles.
	var all []float64
	var cycles []map[string]float64
	for k0 := 0; k0 < len(stepAt); k0 += 4 {
		var lat []float64
		reacted, stepsOK := 0, 0
		for k := k0; k < k0+4 && k < len(stepAt); k++ {
			if len(stepLat[k]) == 0 {
				continue
			}
			reacted++
			late := false
			for _, l := range stepLat[k] {
				late = late || l > reactBudget.Seconds()*1e3
			}
			if !late {
				stepsOK++
			}
			lat = append(lat, stepLat[k]...)
		}
		if len(lat) == 0 {
			continue
		}
		all = append(all, lat...)
		onTime := 0
		for _, l := range lat {
			if l <= reactBudget.Seconds()*1e3 {
				onTime++
			}
		}
		cycles = append(cycles, map[string]float64{
			"latency_p50_ms": quantile(lat, 0.5),
			"latency_p99_ms": quantile(lat, 0.99),
			"on_time_frac":   frac(float64(onTime), float64(len(lat))),
			"goodput_frac":   frac(float64(stepsOK), float64(reacted)),
		})
	}
	st.reactions = len(all)
	st.meanReactMs = mean(all)
	out.attempted += len(all)
	out.failed += c.errs()
	if len(all) == 0 {
		out.violations = append(out.violations, "no demand step caused a placement change")
	}
	st.e2e = medianMetrics(cycles)
	st.e2e["completion_ms"] = median(converge)

	d := telemetry.Delta(snap0, snap1)
	leaseExpiries += d.Counter("controller.lease_expiries")
	if leaseExpiries > 0 {
		out.violations = append(out.violations, fmt.Sprintf("%d heartbeat leases expired", leaseExpiries))
	}
	L := st.layer
	histMs := func(name string, q float64) float64 {
		if h, ok := d.Histogram(name); ok && h.State.Count > 0 {
			return h.Quantile(q) * 1e3
		}
		return 0
	}
	L["controller.round_ms_p50"] = histMs("controller.round_s", 0.5)
	L["controller.round_ms_p99"] = histMs("controller.round_s", 0.99)
	L["controller.assigns_sent"] = float64(d.Counter("controller.assigns_sent"))
	L["controller.removes_sent"] = float64(d.Counter("controller.removes_sent"))
	L["ctrlproto.stream_wait_ms_p99"] = histMs("controller.stream.queue_wait_s", 0.99)
	L["ctrlproto.pushes_per_s"] = frac(coldAssigns, coldTime)
	if v, ok := snap1.Gauge("controller.stream.coalesced"); ok {
		L["ctrlproto.coalesced"] = float64(v)
	}
	if v, ok := snap1.Gauge("controller.stream.dropped"); ok {
		L["ctrlproto.dropped"] = float64(v)
	}
	L["node.scrape_ms_p50"] = quantile(scrapeMs, 0.5)
	L["node.scrape_ms_p99"] = quantile(scrapeMs, 0.99)
	L["node.lease_expiries"] = float64(leaseExpiries)
	return st, nil
}
