package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/probes"
)

// scriptStep is one scripted transport outcome: a transport error, or a
// synthetic response with a status and optional Retry-After.
type scriptStep struct {
	err        error
	status     int
	retryAfter string
}

// scriptedTransport replays steps in order; past the script's end every
// round trip succeeds with 200. No real server, no WriteHeader — the
// envelope lint greps this package for naked status writes.
type scriptedTransport struct {
	steps []scriptStep
	calls int
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	i := s.calls
	s.calls++
	if i >= len(s.steps) {
		return synthResponse(req, http.StatusOK, ""), nil
	}
	st := s.steps[i]
	if st.err != nil {
		return nil, st.err
	}
	return synthResponse(req, st.status, st.retryAfter), nil
}

func synthResponse(req *http.Request, status int, retryAfter string) *http.Response {
	h := http.Header{"Content-Type": []string{"application/json"}}
	body := "{}"
	if status != http.StatusOK {
		body = fmt.Sprintf(`{"error":{"code":"%s","message":"scripted","request_id":"r1"}}`, ErrCodeRateLimited)
	}
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	return &http.Response{
		Status:     fmt.Sprintf("%d scripted", status),
		StatusCode: status,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Body:       io.NopCloser(bytes.NewReader([]byte(body))),
		Request:    req,
	}
}

// scriptedClient builds a client whose transport replays steps and
// whose Sleep hook records every wait instead of sleeping.
func scriptedClient(steps []scriptStep) (*Client, *scriptedTransport, *[]time.Duration) {
	st := &scriptedTransport{steps: steps}
	cl := NewClientSeeded("http://controller", 1)
	cl.HTTP = &http.Client{Transport: st}
	sleeps := &[]time.Duration{}
	cl.Sleep = func(d time.Duration) { *sleeps = append(*sleeps, d) }
	return cl, st, sleeps
}

// The partial rounds a probe's client makes of Sync, as the tests that
// drive a probe by hand spell them: contact only, a lease ask with
// nothing to deliver, a delivery with no lease ask.

func heartbeat(cl *Client, probeID string) error {
	_, err := cl.Sync(SyncRequest{ProbeID: probeID, Max: -1}, 0)
	return err
}

func leaseTasks(cl *Client, probeID string, max int) ([]probes.Task, error) {
	resp, err := cl.Sync(SyncRequest{ProbeID: probeID, Max: max}, 0)
	return resp.Tasks, err
}

func uploadResults(cl *Client, probeID string, rs []probes.Result) error {
	_, err := cl.Sync(SyncRequest{ProbeID: probeID, Results: rs, Max: -1}, 0)
	return err
}

func TestClientHonorsRetryAfter(t *testing.T) {
	// A 429 carrying Retry-After: 3 must make the client wait the
	// server's 3s, not its own jittered backoff (which starts at 50ms).
	cl, _, sleeps := scriptedClient([]scriptStep{
		{status: http.StatusTooManyRequests, retryAfter: "3"},
	})
	if err := heartbeat(cl, "p1"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 3*time.Second {
		t.Fatalf("sleeps = %v, want exactly [3s] (server-suggested delay wins)", *sleeps)
	}
	if got := cl.ResilienceCounters()["retry_after_honored"]; got != 1 {
		t.Fatalf("retry_after_honored = %d, want 1", got)
	}
}

func TestClientHonorsRetryAfterOn503(t *testing.T) {
	// The recovery gate's 503 + Retry-After gets the same treatment.
	cl, _, sleeps := scriptedClient([]scriptStep{
		{status: http.StatusServiceUnavailable, retryAfter: "2"},
	})
	if err := heartbeat(cl, "p1"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 2*time.Second {
		t.Fatalf("sleeps = %v, want [2s]", *sleeps)
	}
}

func TestClientRetryAfterUnparseableFallsBack(t *testing.T) {
	cl, _, sleeps := scriptedClient([]scriptStep{
		{status: http.StatusTooManyRequests, retryAfter: "soon"},
		{status: http.StatusTooManyRequests}, // no header at all
	})
	if err := heartbeat(cl, "p1"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("sleeps = %v, want two backoff waits", *sleeps)
	}
	for _, d := range *sleeps {
		if d >= time.Second {
			t.Fatalf("fallback backoff %v looks like a honored header", d)
		}
	}
	if got := cl.ResilienceCounters()["retry_after_honored"]; got != 0 {
		t.Fatalf("retry_after_honored = %d, want 0", got)
	}
}

func TestClientBreakerTripsFastFailsAndRecovers(t *testing.T) {
	connRefused := fmt.Errorf("dial tcp: connection refused")
	cl, st, _ := scriptedClient([]scriptStep{
		{err: connRefused}, {err: connRefused}, {err: connRefused},
	})
	cl.MaxAttempts = 1 // one attempt per call: calls map 1:1 to round trips
	cl.BreakerThreshold = 3

	// Three consecutive transport failures trip the breaker.
	for i := 0; i < 3; i++ {
		if err := heartbeat(cl, "p1"); err == nil {
			t.Fatal("scripted transport failure did not surface")
		}
	}
	if got := cl.ResilienceCounters()["breaker_open_total"]; got != 1 {
		t.Fatalf("breaker_open_total = %d, want 1", got)
	}

	// While open, calls fail fast without touching the wire...
	wire := st.calls
	for i := 0; i < 3; i++ {
		err := heartbeat(cl, "p1")
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d while open: err = %v, want ErrCircuitOpen", i, err)
		}
	}
	if st.calls != wire {
		t.Fatalf("open breaker still issued %d round trips", st.calls-wire)
	}
	if got := cl.ResilienceCounters()["breaker_fastfail"]; got != 3 {
		t.Fatalf("breaker_fastfail = %d, want 3", got)
	}

	// ...until the 4th arrival goes through as a half-open probe; the
	// script is exhausted so it succeeds, closing the breaker.
	if err := heartbeat(cl, "p1"); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st.calls != wire+1 {
		t.Fatalf("half-open probe issued %d round trips, want 1", st.calls-wire)
	}
	if err := heartbeat(cl, "p1"); err != nil {
		t.Fatalf("call after breaker closed: %v", err)
	}
}

func TestClientBreakerResetByAnyResponse(t *testing.T) {
	connRefused := fmt.Errorf("dial tcp: connection refused")
	// Two failures, then a 429 response, then two more failures: the
	// response proves the uplink works, so the streak resets and the
	// breaker (threshold 3) never trips.
	cl, _, _ := scriptedClient([]scriptStep{
		{err: connRefused}, {err: connRefused},
		{status: http.StatusTooManyRequests},
		{err: connRefused}, {err: connRefused},
	})
	cl.MaxAttempts = 1
	cl.BreakerThreshold = 3
	for i := 0; i < 5; i++ {
		heartbeat(cl, "p1") //nolint:errcheck
	}
	if got := cl.ResilienceCounters()["breaker_open_total"]; got != 0 {
		t.Fatalf("breaker tripped across a received response: %v", cl.ResilienceCounters())
	}
}

func TestClient503StormDoesNotFeedBreaker(t *testing.T) {
	// A federation coordinator answering every call 503 shard_unavailable
	// + Retry-After (one shard dead, failover pending) must never open
	// the breaker, even on a hair trigger: the uplink is fine, the
	// service is telling us when to come back. Each retry honors the
	// server's delay.
	steps := make([]scriptStep, 12)
	for i := range steps {
		steps[i] = scriptStep{status: http.StatusServiceUnavailable, retryAfter: "2"}
	}
	cl, st, sleeps := scriptedClient(steps)
	cl.MaxAttempts = 3
	cl.BreakerThreshold = 1
	for i := 0; i < 4; i++ {
		if err := heartbeat(cl, "p1"); err == nil && st.calls <= len(steps) {
			t.Fatalf("call %d: scripted 503 did not surface", i)
		}
	}
	ctrs := cl.ResilienceCounters()
	if ctrs["breaker_open_total"] != 0 || ctrs["breaker_fastfail"] != 0 {
		t.Fatalf("503 storm fed the breaker: %v", ctrs)
	}
	if ctrs["retry_after_honored"] == 0 {
		t.Fatalf("no Retry-After honored during the storm: %v", ctrs)
	}
	for _, d := range *sleeps {
		if d != 2*time.Second {
			t.Fatalf("sleep %v, want the server's 2s on every retry", d)
		}
	}
}

func TestClientSurfacesRetryAfterOnFinalError(t *testing.T) {
	// When attempts run out, the APIError handed to the caller carries
	// the last Retry-After so outer layers (spool drain, coordinator
	// fan-out) can schedule their own retry.
	cl, _, _ := scriptedClient([]scriptStep{
		{status: http.StatusServiceUnavailable, retryAfter: "7"},
	})
	cl.MaxAttempts = 1
	err := heartbeat(cl, "p1")
	if err == nil {
		t.Fatal("exhausted attempts did not surface an error")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("final error %v is not an APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter != 7 {
		t.Fatalf("final APIError = status %d retryAfter %d, want 503/7", apiErr.Status, apiErr.RetryAfter)
	}
}

func TestClientBreakerDisabledByDefault(t *testing.T) {
	connRefused := fmt.Errorf("dial tcp: connection refused")
	steps := make([]scriptStep, 20)
	for i := range steps {
		steps[i] = scriptStep{err: connRefused}
	}
	cl, st, _ := scriptedClient(steps)
	cl.MaxAttempts = 1
	for i := 0; i < 20; i++ {
		if err := heartbeat(cl, "p1"); errors.Is(err, ErrCircuitOpen) {
			t.Fatal("breaker tripped with BreakerThreshold unset")
		}
	}
	if st.calls != 20 {
		t.Fatalf("round trips = %d, want 20 (no fast-fails)", st.calls)
	}
}
