// Command perfbench is the PRAN repository benchmark. It runs one named
// workload against the program's public entry points, checks the program's
// outputs, and prints every metric with its unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload ul-busy --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from an untraced run; --trace 1
// reports the per-layer metrics from a traced run, together with the
// tracing overhead, and writes the spans under .bench_build/traces. See
// README.md in this directory for the workloads and what each metric
// predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the processor budget every workload runs under: the driver
// goroutine plus one pool worker (or, in ctrl-churn, the controller and the
// stub agents' connections). It is a constant of the benchmark so that a
// host with more cores does not change the offered load.
const procs = 2

// setupRepeats is how many times an uplink run performs its set-up;
// setup_s is the median and the last set-up is the one measured.
const setupRepeats = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (--trace 0). Each workload
// defines them over its own unit of work; see README.md.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"completion_ms", "ms"},
	{"on_time_frac", "frac"},
	{"goodput_frac", "frac"},
	{"setup_s", "s"},
	{"rss_mb", "MiB"},
}

// perLayer lists the metrics of a traced run (--trace 1). A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"fronthaul.recv_us_p50", "us"},
	{"fronthaul.bytes_per_sf", "B"},
	{"dataplane.ingest_ms_p50", "ms"},
	{"dataplane.ingest_ms_p99", "ms"},
	{"bench.driver_late_ms_p99", "ms"},
	{"dataplane.alloc_bytes_per_tb", "B"},
	{"dataplane.queue_wait_ms_p50", "ms"},
	{"dataplane.queue_wait_ms_p99", "ms"},
	{"dataplane.queue_depth_p99", "count"},
	{"dataplane.abandoned_frac", "frac"},
	{"dataplane.service_ms_p50", "ms"},
	{"dataplane.service_ms_p99", "ms"},
	{"dataplane.busy_frac", "frac"},
	{"dataplane.batch_width_mean", "count"},
	{"dataplane.degrade_level_mean", "level"},
	{"phy.frontend_us_p50", "us"},
	{"phy.turbo_us_p50", "us"},
	{"phy.crc_us_p50", "us"},
	{"phy.stage_share", "frac"},
	{"phy.turbo_iters_per_tb", "count"},
	{"phy.ns_per_bit", "ns"},
	{"phy.crc_pass_frac", "frac"},
	{"harq.combine_ok_frac", "frac"},
	{"harq.state_kb", "KiB"},
	{"telemetry.snapshot_us", "us"},
	{"controller.round_ms_p50", "ms"},
	{"controller.round_ms_p99", "ms"},
	{"controller.assigns_sent", "count"},
	{"controller.removes_sent", "count"},
	{"ctrlproto.stream_wait_ms_p99", "ms"},
	{"ctrlproto.pushes_per_s", "1/s"},
	{"ctrlproto.coalesced", "count"},
	{"ctrlproto.dropped", "count"},
	{"node.scrape_ms_p50", "ms"},
	{"node.scrape_ms_p99", "ms"},
	{"node.lease_expiries", "count"},
	{"self.bench_ms", "ms"},
	{"self.fronthaul_ms", "ms"},
	{"self.dataplane_ms", "ms"},
	{"self.pool_ms", "ms"},
	{"self.telemetry_ms", "ms"},
	{"self.controller_ms", "ms"},
	{"self.ctrlproto_ms", "ms"},
	{"self.node_ms", "ms"},
	{"self.stub_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "frac"},
}

// runOpts are one invocation's arguments.
type runOpts struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	attempted  int
	failed     int
	violations []string           // output-check failures; any one fails the run
	e2e        map[string]float64 // untraced run
	layer      map[string]float64 // traced run
	summary    string             // human-readable line, printed before the result
}

// workloads maps each workload name onto its runner.
var workloads = map[string]func(runOpts) (outcome, error){
	"ul-busy":    func(o runOpts) (outcome, error) { return runUL(ulBusy, "ul-busy", o) },
	"ul-dense":   func(o runOpts) (outcome, error) { return runUL(ulDense, "ul-dense", o) },
	"ctrl-churn": runCtrl,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	o, err := run(runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs, vals := endToEnd, o.e2e
	if *trace == 1 {
		defs, vals = perLayer, o.layer
	}
	res := result{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d %s\n", *workload, *seed, *seconds, *trace, o.summary)
	for _, v := range o.violations {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timedSetups runs setup n times and returns the last result
// with the median set-up time in seconds. Each earlier result is closed and
// collected before the next set-up starts, so set-ups never overlap and the
// process's peak memory reflects one set-up, not several.
func timedSetups[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// summaryLine formats selected values for the human-readable line.
func summaryLine(kv map[string]float64, keys ...string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.4g", k, kv[k])
	}
	return b.String()
}

// secondsDur converts the --seconds argument into a duration.
func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// addSelfTimes reports a tracer's per-layer self time as milliseconds per
// root span (per TTI, demand step or cold start).
func addSelfTimes(layer map[string]float64, tr *tracer) {
	self, roots := tr.selfTimes()
	for name, secs := range self {
		layer["self."+name+"_ms"] = frac(secs*1e3, float64(roots))
	}
	layer["trace.spans"] = float64(tr.spanCount())
}
