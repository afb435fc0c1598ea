package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span is one timed region of a request. A span tree is built and
// finished by a single goroutine (the request handler and the code it
// calls synchronously); the immutable TraceView published at the end is
// what crosses goroutines. All methods are nil-receiver safe so
// un-traced code paths cost a pointer check.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	children []*Span
}

// Child starts a sub-span. End it before ending the parent.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// End records the span's duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
}

// Trace is one request's span tree under construction.
type Trace struct {
	requestID string
	route     string
	method    string
	root      *Span
}

// NewTrace starts a trace whose root span covers the whole request.
func NewTrace(requestID, route, method string) *Trace {
	return &Trace{
		requestID: requestID,
		route:     route,
		method:    method,
		root:      &Span{name: "handler", start: time.Now()},
	}
}

// Root returns the root (handler) span for context propagation.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span and returns the immutable view plus the
// total duration.
func (t *Trace) Finish(status int) (TraceView, time.Duration) {
	t.root.End()
	v := TraceView{
		RequestID:  t.requestID,
		Route:      t.route,
		Method:     t.method,
		Status:     status,
		DurationMS: durMS(t.root.dur),
		Spans:      []SpanView{t.root.view(t.root.start)},
	}
	return v, t.root.dur
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Span) view(origin time.Time) SpanView {
	v := SpanView{
		Name:       s.name,
		OffsetMS:   durMS(s.start.Sub(origin)),
		DurationMS: durMS(s.dur),
	}
	for _, c := range s.children {
		v.Children = append(v.Children, c.view(origin))
	}
	return v
}

// SpanView is one finished span in a TraceView. Offsets are relative to
// the request start.
type SpanView struct {
	Name       string     `json:"name"`
	OffsetMS   float64    `json:"offset_ms"`
	DurationMS float64    `json:"duration_ms"`
	Children   []SpanView `json:"children,omitempty"`
}

// TraceView is one finished request trace as served by
// GET /api/v1/debug/traces.
type TraceView struct {
	RequestID  string     `json:"request_id"`
	Route      string     `json:"route"`
	Method     string     `json:"method"`
	Status     int        `json:"status"`
	DurationMS float64    `json:"duration_ms"`
	Spans      []SpanView `json:"spans"`
}

// TraceRing is a bounded ring of finished traces: the newest N requests
// are queryable, older ones are overwritten. Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []TraceView
	next int
	full bool
}

// NewTraceRing creates a ring holding up to capacity traces
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]TraceView, capacity)}
}

// Add publishes a finished trace, evicting the oldest when full.
func (r *TraceRing) Add(v TraceView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len reports how many traces the ring currently holds.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *TraceRing) lenLocked() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Slowest returns up to n held traces sorted by duration descending
// (ties broken by request id for determinism).
func (r *TraceRing) Slowest(n int) []TraceView {
	r.mu.Lock()
	held := r.lenLocked()
	out := make([]TraceView, held)
	copy(out, r.buf[:held])
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurationMS != out[j].DurationMS {
			return out[i].DurationMS > out[j].DurationMS
		}
		return out[i].RequestID < out[j].RequestID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// spanKey is the context key for the active span.
type spanKey struct{}

// WithSpan returns a context carrying the span.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
