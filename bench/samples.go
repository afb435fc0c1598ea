package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// samples is one client's raw latency record for one operation type.
// Each client owns its own, so recording takes no lock; they are merged
// after the window.
type samples []time.Duration

func mergeSamples(parts ...samples) samples {
	var out samples
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads the q-quantile of an ascending sample by nearest rank.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

// best is the fastest sample: the statistic every end-to-end timing
// reports. The sandbox this runs in is a few cores of a shared host.
// Its neighbours only ever add time to a sample, and they add it in
// phases that last minutes: over ten runs a quarter of an hour apart the
// median of an operation moved by 15 to 25 %, its lower quartile by 10
// to 20 %, its fastest sample by 3 to 10 % (README.md has the table).
// The fastest sample is the one the neighbours touched least. A change
// that makes the operation itself cheaper or dearer moves it like it
// moves the median; one that only makes some repetitions cheaper, say a
// cache, it shows at its best case, so the medians are reported too,
// unbounded, in the per-layer list (client.*).
func (s samples) best() time.Duration { return s.quantile(0) }

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func (s samples) sum() time.Duration {
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum
}

// tail names the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it, and its value: the percentile the sample supports.
func (s samples) tail() (string, time.Duration) {
	for _, c := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(s))*(1-c.q) >= 10 {
			return c.name, s.quantile(c.q)
		}
	}
	return "max", s.quantile(1)
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// describe is the human line for one timing: median, supported tail,
// sample count.
func (s samples) describe() string {
	name, v := s.tail()
	return fmt.Sprintf("p50=%.3fms %s=%.3fms n=%d", ms(s.median()), name, ms(v), len(s))
}

// span is one traced interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a request root); Req ties the
// spans of one request together.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing, which is how the end-to-end run keeps
// tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; parent < 0 starts a new
// request.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	req := int64(0)
	if parent >= 0 {
		req = t.spans[parent].Req
	} else {
		t.req++
		req = t.req
	}
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNS = now
	t.mu.Unlock()
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
