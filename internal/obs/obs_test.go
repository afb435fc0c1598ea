package obs

import (
	"context"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
		// Every duration must respect its bucket's upper bound.
		if i := bucketIndex(c.d); i < NumBuckets-1 && c.d > bucketBound(i) {
			t.Errorf("bucketIndex(%v) = %d but bound %v < d", c.d, i, bucketBound(i))
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(10 * time.Second)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 10*time.Second {
		t.Fatalf("max = %v", s.Max)
	}
	// p50/p90 land in the 1ms bucket; p99 is within 2x below its bound.
	if s.P50 > 2*time.Millisecond || s.P90 > 2*time.Millisecond {
		t.Fatalf("p50=%v p90=%v, want <= 1ms bucket bound", s.P50, s.P90)
	}
	if s.P99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want in the 1ms bucket (99th of 100)", s.P99)
	}
	if s.Mean < 90*time.Millisecond || s.Mean > 110*time.Millisecond {
		t.Fatalf("mean = %v, want ~100ms", s.Mean)
	}
	// A nil histogram is a safe no-op everywhere.
	var nilH *Histogram
	nilH.Observe(time.Second)
	if snap := nilH.Snapshot(); snap.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Max != workers*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
}

func TestRegistryPrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Hist("obs_b_seconds", "op", "z").Observe(time.Millisecond)
	reg.Hist("obs_b_seconds", "op", "a").Observe(time.Millisecond)
	reg.Hist("obs_a_seconds").Observe(time.Second)
	events := reg.Counters("obs_x_events_total")
	events.Add("zz", 2)
	events.Inc("aa")
	events.Add("touched", 0)
	reg.Gauges("obs_x_gauge").Set("depth", 7)
	reg.Counters("obs_w_events_total").Inc("one")
	reg.Gauges("obs_y_gauge").Set("down", -3)

	var first, second strings.Builder
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("exposition not deterministic across renders")
	}
	out := first.String()
	// Families in sorted order, labels sorted within a family.
	aIdx := strings.Index(out, "# TYPE obs_a_seconds histogram")
	bIdx := strings.Index(out, "# TYPE obs_b_seconds histogram")
	if aIdx < 0 || bIdx < 0 || aIdx > bIdx {
		t.Fatalf("family ordering wrong:\n%s", out)
	}
	if za, zz := strings.Index(out, `op="a"`), strings.Index(out, `op="z"`); za < 0 || zz < 0 || za > zz {
		t.Fatalf("label ordering wrong:\n%s", out)
	}
	// Counter and gauge families come after the histograms, interleaved in
	// name order, each under its own TYPE line.
	last := bIdx
	for _, line := range []string{
		"# TYPE obs_w_events_total counter",
		`obs_w_events_total{name="one"} 1`,
		"# TYPE obs_x_events_total counter",
		`obs_x_events_total{name="aa"} 1`,
		`obs_x_events_total{name="touched"} 0`,
		`obs_x_events_total{name="zz"} 2`,
		"# TYPE obs_x_gauge gauge",
		`obs_x_gauge{name="depth"} 7`,
		"# TYPE obs_y_gauge gauge",
		`obs_y_gauge{name="down"} -3`,
	} {
		i := strings.Index(out, line+"\n")
		if i < last {
			t.Fatalf("%q missing or out of order:\n%s", line, out)
		}
		last = i
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	// Same (family, labels) returns the same histogram, and the same name
	// the same family.
	if reg.Hist("obs_b_seconds", "op", "a") != reg.Hist("obs_b_seconds", "op", "a") {
		t.Fatal("Hist not idempotent")
	}
	if reg.Counters("obs_x_events_total") != events {
		t.Fatal("Counters not idempotent")
	}
}

func TestFamilyValues(t *testing.T) {
	reg := NewRegistry()
	f := reg.Counters("c")
	if got := f.Get("missing"); got != 0 || len(f.Snapshot()) != 0 {
		t.Fatalf("empty family: missing = %d, snapshot %v", got, f.Snapshot())
	}
	f.Inc("a")
	f.Add("a", 2)
	f.Add("b", 5)
	f.Set("b", 4)
	if got := f.Get("a"); got != 3 {
		t.Fatalf("a = %d", got)
	}
	snap := f.Snapshot()
	if snap["a"] != 3 || snap["b"] != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
	// Snapshot is a copy, not a view.
	snap["a"] = 99
	if got := f.Get("a"); got != 3 {
		t.Fatalf("snapshot aliased the family: a = %d", got)
	}
	reg.Gauges("g").Set("depth", 9)
	if u := Union(f, reg.Gauges("g")); len(u) != 3 || u["a"] != 3 || u["depth"] != 9 {
		t.Fatalf("union = %v", u)
	}
}

// TestFamilyConcurrentAdd has many goroutines add to one family while it
// is rendered (run under -race in tier-1): every add lands.
func TestFamilyConcurrentAdd(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := reg.Counters("obs_events_total")
			for i := 0; i < per; i++ {
				f.Add("hits", int64(w+1))
				f.Inc("calls")
			}
			_ = reg.WritePrometheus(io.Discard)
		}(w)
	}
	wg.Wait()
	want := map[string]int64{"hits": per * workers * (workers + 1) / 2, "calls": workers * per}
	if got := reg.Counters("obs_events_total").Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("req-1", "probe_results", "POST")
	sp := tr.Root().Child("mutator:results_accept")
	fsync := sp.Child("journal.fsync")
	fsync.End()
	sp.End()
	v, dur := tr.Finish(200)
	if dur <= 0 {
		t.Fatal("non-positive trace duration")
	}
	if v.RequestID != "req-1" || v.Route != "probe_results" || v.Status != 200 {
		t.Fatalf("trace view = %+v", v)
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != "handler" {
		t.Fatalf("root span = %+v", v.Spans)
	}
	root := v.Spans[0]
	if len(root.Children) != 1 || root.Children[0].Name != "mutator:results_accept" {
		t.Fatalf("mutator span = %+v", root.Children)
	}
	if len(root.Children[0].Children) != 1 || root.Children[0].Children[0].Name != "journal.fsync" {
		t.Fatalf("fsync span = %+v", root.Children[0].Children)
	}

	// Nil spans (no trace in context) no-op safely.
	none := SpanFrom(context.Background())
	child := none.Child("x")
	child.End()
	none.End()
	if got := SpanFrom(WithSpan(context.Background(), tr.Root())); got != tr.Root() {
		t.Fatal("context round trip lost the span")
	}
}

// TestTraceRingBound hammers the ring from many goroutines and asserts
// it never exceeds its capacity (run under -race in tier-1).
func TestTraceRingBound(t *testing.T) {
	ring := NewTraceRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace("req", "route", "GET")
				v, _ := tr.Finish(200)
				v.DurationMS = float64(w*1000 + i)
				ring.Add(v)
				ring.Slowest(5)
			}
		}(w)
	}
	wg.Wait()
	if ring.Len() != 32 || len(ring.buf) != 32 {
		t.Fatalf("ring len=%d cap=%d, want 32/32", ring.Len(), len(ring.buf))
	}
	slow := ring.Slowest(5)
	if len(slow) != 5 {
		t.Fatalf("slowest(5) returned %d", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].DurationMS > slow[i-1].DurationMS {
			t.Fatal("slowest not sorted descending")
		}
	}
	if got := ring.Slowest(0); len(got) != 32 {
		t.Fatalf("slowest(0) = %d, want all 32", len(got))
	}
}
