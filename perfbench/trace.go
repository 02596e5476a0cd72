package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanKey names one span within a trace. Parent links are expressed by key
// rather than by a numeric ID so that a child may be recorded before its
// parent: a pool worker can finish a task (and record its queue and service
// spans) while the ingest call that submitted it is still running.
type spanKey struct {
	Name  string
	Trace uint64
	Sub   int // disambiguates siblings, e.g. the cell of an ingest span
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	key    spanKey
	parent spanKey // zero Name means a root span
	start  int64
	end    int64
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call
// site. Spans arrive from the driver goroutine and from pool workers, so
// the slice is guarded by a mutex.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// add records one span.
func (t *tracer) add(key, parent spanKey, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{key: key, parent: parent, start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerOf maps a span name ("fronthaul.recv") onto its layer ("fronthaul").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds — a span's duration
// minus the part of its interval its children cover — summed over all
// spans, and the number of root spans.
func (t *tracer) selfTimes() (map[string]float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[spanKey][][2]int64)
	for _, s := range t.spans {
		if s.parent.Name != "" {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[string]float64)
	roots := 0
	for _, s := range t.spans {
		if s.parent.Name == "" {
			roots++
		}
		d := s.end - s.start - covered(children[s.key], s.start, s.end)
		if d < 0 {
			d = 0
		}
		self[layerOf(s.key.Name)] += float64(d) / 1e9
	}
	return self, roots
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanCount returns the number of recorded spans.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// jsonSpan is a span's on-disk form: one JSON object per line, numeric IDs
// with parent links resolved.
type jsonSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	Sub     int    `json:"sub"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// write stores the spans as JSON lines at path, preceded by a header line
// carrying the run's identity.
func (t *tracer) write(path string, header map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	ids := make(map[spanKey]int, len(t.spans))
	for i, s := range t.spans {
		ids[s.key] = i
	}
	for i, s := range t.spans {
		parent := -1
		if s.parent.Name != "" {
			if p, ok := ids[s.parent]; ok {
				parent = p
			}
		}
		if err := enc.Encode(jsonSpan{ID: i, Parent: parent, Name: s.key.Name, Trace: s.key.Trace,
			Sub: s.key.Sub, StartNs: s.start, EndNs: s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
