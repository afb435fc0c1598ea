// Package faultinject provides a deterministic fault-injecting
// http.RoundTripper for exercising the observatory control plane under
// the conditions the paper's probes actually face: flaky cellular
// links, mid-flight crashes, and overloaded controllers.
//
// A Transport wraps an inner RoundTripper and, driven by a seeded RNG,
// drops requests before they reach the server, drops responses after
// the server has processed the request (the nasty at-least-once case),
// duplicates requests, injects synthetic 503s, and adds delays. The
// same seed always yields the same fault schedule, so end-to-end tests
// stay reproducible.
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/afrinet/observatory/internal/obs"
)

// ErrDropped is the error shape returned for injected drops. Callers
// see it as an ordinary transport failure.
type ErrDropped struct {
	// Phase is "request" (never reached the server) or "response"
	// (the server processed the request but the reply was lost).
	Phase string
}

func (e *ErrDropped) Error() string {
	return fmt.Sprintf("faultinject: %s dropped", e.Phase)
}

// Transport is a fault-injecting RoundTripper. Probabilities are
// evaluated in a fixed order per request (partition, drop-request,
// 503, delay, duplicate, drop-response) from a seeded RNG, so a given
// seed produces one deterministic fault schedule when requests are
// issued sequentially.
//
// The zero probabilities make it a transparent proxy; configure the
// fields before issuing traffic.
type Transport struct {
	// Inner performs real round trips; nil means http.DefaultTransport.
	Inner http.RoundTripper

	// DropRequestProb loses the request before the server sees it.
	DropRequestProb float64
	// DropResponseProb delivers the request (the server processes it)
	// but loses the response — the case idempotent completion exists for.
	DropResponseProb float64
	// ErrProb returns a synthetic 503 without contacting the server.
	ErrProb float64
	// DupProb sends the request twice; the server processes both and
	// the caller sees the second response.
	DupProb float64
	// DelayProb sleeps Delay before forwarding.
	DelayProb float64
	// Delay is the injected latency when a delay fault fires.
	Delay time.Duration
	// Sleep is the wait hook for injected delays (nil means
	// time.Sleep); tests replace it so delay faults stop burning
	// wall-clock time.
	Sleep func(time.Duration)

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned bool
	stats       *obs.Family
}

// New creates a transparent Transport seeded for reproducibility.
func New(seed int64) *Transport {
	return &Transport{
		Inner: http.DefaultTransport,
		rng:   rand.New(rand.NewSource(seed)),
		stats: obs.NewRegistry().Counters("faultinject_events_total"),
	}
}

// SetPartitioned toggles a full partition: while set, every request
// fails as a request drop regardless of the probabilities.
func (t *Transport) SetPartitioned(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned = on
}

// Stats returns the injected-fault counters: "drop_request",
// "drop_response", "err503", "dup", "delay", "partitioned", "passed".
func (t *Transport) Stats() map[string]int64 { return t.stats.Snapshot() }

// faultPlan is one request's drawn schedule.
type faultPlan struct {
	partition, dropReq, err503, delay, dup, dropResp bool
}

func (t *Transport) draw() faultPlan {
	t.mu.Lock()
	defer t.mu.Unlock()
	var p faultPlan
	p.partition = t.partitioned
	// Draw every fault even when an earlier one short-circuits, so the
	// RNG consumption per request is constant and schedules stay
	// aligned across configuration tweaks.
	p.dropReq = t.rng.Float64() < t.DropRequestProb
	p.err503 = t.rng.Float64() < t.ErrProb
	p.delay = t.rng.Float64() < t.DelayProb
	p.dup = t.rng.Float64() < t.DupProb
	p.dropResp = t.rng.Float64() < t.DropResponseProb
	return p
}

// RoundTrip applies the drawn fault schedule to one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	plan := t.draw()

	if plan.partition {
		t.stats.Inc("partitioned")
		closeBody(req)
		return nil, &ErrDropped{Phase: "request"}
	}
	if plan.dropReq {
		t.stats.Inc("drop_request")
		closeBody(req)
		return nil, &ErrDropped{Phase: "request"}
	}
	if plan.err503 {
		t.stats.Inc("err503")
		closeBody(req)
		return synthetic503(req), nil
	}
	if plan.delay && t.Delay > 0 {
		t.stats.Inc("delay")
		if t.Sleep != nil {
			t.Sleep(t.Delay)
		} else {
			time.Sleep(t.Delay)
		}
	}

	// Buffer the body so the request can be replayed for duplication.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}

	if plan.dup {
		t.stats.Inc("dup")
		first, err := inner.RoundTrip(cloneRequest(req, body))
		if err == nil {
			// Discard the first delivery's response.
			io.Copy(io.Discard, first.Body) //nolint:errcheck
			first.Body.Close()
		}
	}

	resp, err := inner.RoundTrip(cloneRequest(req, body))
	if err != nil {
		return nil, err
	}
	if plan.dropResp {
		// The server did the work; the reply evaporates.
		t.stats.Inc("drop_response")
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return nil, &ErrDropped{Phase: "response"}
	}
	t.stats.Inc("passed")
	return resp, nil
}

func cloneRequest(req *http.Request, body []byte) *http.Request {
	cp := req.Clone(req.Context())
	if body != nil {
		cp.Body = io.NopCloser(bytes.NewReader(body))
		cp.ContentLength = int64(len(body))
	} else {
		cp.Body = nil
	}
	return cp
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

func synthetic503(req *http.Request) *http.Response {
	return &http.Response{
		Status:     "503 Service Unavailable",
		StatusCode: http.StatusServiceUnavailable,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Content-Type": []string{"text/plain"}},
		Body:       io.NopCloser(bytes.NewReader([]byte("faultinject: injected 503"))),
		Request:    req,
	}
}
