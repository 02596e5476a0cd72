package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// small shrinks a workload's inputs for fast tests.
func small(in ulInputs, cells, ttis int) ulInputs {
	in.cells, in.ttis = cells, ttis
	return in
}

func TestCorpusSameSeedIsByteIdentical(t *testing.T) {
	for name, in := range map[string]ulInputs{"ul-busy": ulBusy.inputs, "ul-dense": ulDense.inputs} {
		in := small(in, 2, 24)
		a, err := buildCorpus(in, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildCorpus(in, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() || !reflect.DeepEqual(a.sfs, b.sfs) {
			t.Errorf("%s: seed 7 generated two different corpora", name)
		}
	}
}

// shape summarizes a corpus: allocations per cell-TTI and the MCS and PRB
// histograms as shares of all allocations.
type shape struct {
	allocsPerSF float64
	mcs, prb    map[int]float64
	retx        float64
}

func shapeOf(c *corpus) shape {
	s := shape{mcs: map[int]float64{}, prb: map[int]float64{}}
	n, sfs := 0.0, 0.0
	for _, cell := range c.sfs {
		for _, sf := range cell {
			sfs++
			for _, a := range sf.work.Allocations {
				n++
				s.mcs[int(a.MCS)]++
				s.prb[a.NumPRB]++
				if a.RV != 0 {
					s.retx++
				}
			}
		}
	}
	for k := range s.mcs {
		s.mcs[k] /= n
	}
	for k := range s.prb {
		s.prb[k] /= n
	}
	s.retx /= n
	s.allocsPerSF = n / sfs
	return s
}

// tvd is the total variation distance between two histograms.
func tvd(a, b map[int]float64) float64 {
	d := 0.0
	for k, v := range a {
		d += math.Abs(v - b[k])
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			d += v
		}
	}
	return d / 2
}

func TestCorpusOtherSeedSameShape(t *testing.T) {
	for name, in := range map[string]ulInputs{"ul-busy": ulBusy.inputs, "ul-dense": ulDense.inputs} {
		a, err := buildCorpus(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildCorpus(in, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() == b.digest() {
			t.Errorf("%s: seeds 1 and 2 generated identical corpora", name)
		}
		sa, sb := shapeOf(a), shapeOf(b)
		if r := sb.allocsPerSF / sa.allocsPerSF; r < 0.85 || r > 1.15 {
			t.Errorf("%s: allocations per subframe %.2f vs %.2f", name, sa.allocsPerSF, sb.allocsPerSF)
		}
		if d := tvd(sa.mcs, sb.mcs); d > 0.3 {
			t.Errorf("%s: MCS histograms differ by %.2f (total variation)", name, d)
		}
		if d := tvd(sa.prb, sb.prb); d > 0.3 {
			t.Errorf("%s: PRB histograms differ by %.2f (total variation)", name, d)
		}
		if math.Abs(sa.retx-sb.retx) > 0.05 {
			t.Errorf("%s: retransmission shares %.3f vs %.3f", name, sa.retx, sb.retx)
		}
	}
}

func TestDenseAllocationsAreNarrow(t *testing.T) {
	c, err := buildCorpus(small(ulDense.inputs, 4, 50), 3)
	if err != nil {
		t.Fatal(err)
	}
	mcs := map[int]bool{}
	for _, cell := range c.sfs {
		for _, sf := range cell {
			for _, a := range sf.work.Allocations {
				if a.NumPRB < 1 || a.NumPRB > 6 {
					t.Fatalf("allocation of %d PRB", a.NumPRB)
				}
				mcs[int(a.MCS)] = true
			}
		}
	}
	if len(mcs) > len(ulDense.inputs.mcsSet) {
		t.Errorf("%d distinct MCS values, want a few", len(mcs))
	}
}

func TestDemandPlanSeeded(t *testing.T) {
	a, err := buildDemandPlan(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildDemandPlan(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 5 generated two different demand plans")
	}
	c, err := buildDemandPlan(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.steps, c.steps) {
		t.Fatal("seeds 5 and 6 generated identical demand plans")
	}
	total := func(v []uint32) float64 {
		s := 0.0
		for _, d := range v {
			s += float64(d)
		}
		return s / 1000
	}
	for k := range a.steps {
		ta, tc := total(a.steps[k]), total(c.steps[k])
		if math.Abs(ta-tc) > 0.02*ta {
			t.Errorf("step %d: total demand %.1f vs %.1f cores", k, ta, tc)
		}
		// Steps cycle wave, surge, wave (surge held), relief.
		want := float64(baseDemand)
		if k%4 == 1 || k%4 == 2 {
			want = surgeDemand
		}
		if math.Abs(ta-want) > 0.05*want {
			t.Errorf("step %d: total demand %.1f cores, want about %.1f", k, ta, want)
		}
	}
}

// TestReplayAccounting replays a small corpus through a batching pool and
// checks that every offered transport block is accounted exactly once with
// a verified payload. Run with -race: the records are written on pool
// worker goroutines.
func TestReplayAccounting(t *testing.T) {
	spec := ulDense
	spec.inputs = small(spec.inputs, 2, 16)
	spec.period = 3 * time.Millisecond
	spec.pool.DeadlineScale = 100 // nothing is late: all tasks decode
	s, err := newULSetup(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	r, wins, err := s.replay([]phaseSpec{{dur: 100 * time.Millisecond}, {dur: 200 * time.Millisecond, measured: true, traced: true}})
	if err != nil {
		t.Fatal(err)
	}
	w := wins[0]
	want := 0
	for k := 0; k < w.k1; k++ {
		for c := range s.corpus.sfs {
			want += len(s.corpus.sfs[c][k%16].work.Allocations)
		}
	}
	if r.next != want {
		t.Fatalf("%d records for %d offered transport blocks", r.next, want)
	}
	for i, rec := range r.recs[:r.next] {
		if rec.fin == 0 {
			t.Fatalf("record %d never finished", i)
		}
		if rec.mismatch {
			t.Fatalf("record %d: CRC passed with a wrong payload", i)
		}
	}
	st := r.summarize(w)
	if st.offered == 0 || st.mismatches != 0 || st.failed != 0 {
		t.Fatalf("offered %d, mismatches %d, failed %d", st.offered, st.mismatches, st.failed)
	}
	for _, d := range endToEnd {
		if d.name == "setup_s" || d.name == "rss_mb" {
			continue
		}
		if _, ok := st.e2e[d.name]; !ok {
			t.Errorf("end-to-end metric %s missing", d.name)
		}
	}
	if st.layer["phy.crc_pass_frac"] == 0 {
		t.Error("no transport block passed CRC")
	}
	r.rootSpans(w)
	if w.spans.spanCount() == 0 {
		t.Error("traced window recorded no spans")
	}
}

func TestCtrlChurnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a controller over loopback for a few seconds")
	}
	out, err := runCtrl(runOpts{seed: 2, seconds: 2, trace: true, traceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.violations) > 0 {
		t.Fatalf("violations: %v", out.violations)
	}
	for _, d := range endToEnd {
		if out.e2e[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, out.e2e[d.name])
		}
	}
	for _, name := range []string{"phy.turbo_us_p50", "dataplane.service_ms_p50", "fronthaul.recv_us_p50"} {
		if out.layer[name] != 0 {
			t.Errorf("ctrl-churn did phy/data-plane work: %s = %v", name, out.layer[name])
		}
	}
	if out.layer["controller.assigns_sent"] == 0 {
		t.Error("no assignments sent during the demand steps")
	}
}

func TestSelfTimes(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer(epoch)
	root := spanKey{Name: "bench.tti", Trace: 1}
	tr.add(root, spanKey{}, at(0), at(10))
	tr.add(spanKey{"fronthaul.recv", 1, 0}, root, at(2), at(5))
	tr.add(spanKey{"dataplane.ingest", 1, 0}, root, at(4), at(8))
	self, roots := tr.selfTimes()
	if roots != 1 {
		t.Fatalf("%d roots", roots)
	}
	want := map[string]float64{"bench": 0.004, "fronthaul": 0.003, "dataplane": 0.004}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}

func TestLoopReaderWraps(t *testing.T) {
	l := &loopReader{b: []byte("abc")}
	p := make([]byte, 5)
	var got []byte
	for len(got) < 7 {
		n, err := l.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p[:n]...)
	}
	if string(got[:7]) != "abcabca" {
		t.Fatalf("read %q", got)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root names exactly the metrics this program prints, with the same units,
// and only workloads it runs (ul-dense runs but is not in the gated set).
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
