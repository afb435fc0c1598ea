package core

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// admissionRig builds a controller with one registered probe so
// heartbeats succeed, plus its handler.
func admissionRig(t *testing.T) (*Controller, http.Handler) {
	t.Helper()
	c := NewController("owner")
	if err := c.RegisterProbe(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	return c, c.Handler()
}

func TestAdmissionRateLimitShedsLowPriorityRoute(t *testing.T) {
	c, h := admissionRig(t)
	c.ConfigureAdmission(AdmissionConfig{
		RouteRates:        map[string]RateLimit{"query": {PerTick: 1, Burst: 2}},
		RetryAfterSeconds: 7,
	})

	// The burst admits two queries; the third is shed with the full
	// envelope treatment: 429, rate_limited code, Retry-After header.
	for i := 0; i < 2; i++ {
		if w := doReq(h, http.MethodGet, "/api/v1/query", "", nil); w.Code != http.StatusOK {
			t.Fatalf("query %d within burst: status %d (%s)", i, w.Code, w.Body.String())
		}
	}
	w := doReq(h, http.MethodGet, "/api/v1/query", "", map[string]string{RequestIDHeader: "conf-shed"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("query beyond burst: status %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want configured 7", got)
	}
	env := decodeEnvelope(t, w)
	if env.Error.Code != ErrCodeRateLimited {
		t.Fatalf("code = %q, want %q", env.Error.Code, ErrCodeRateLimited)
	}
	if env.Error.RequestID != "conf-shed" {
		t.Fatalf("envelope request_id %q does not echo the header", env.Error.RequestID)
	}

	// Heartbeats are not rate-limited: the fleet keeps landing while
	// analyst queries shed.
	if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1", "max": -1}`, nil); w.Code != http.StatusOK {
		t.Fatalf("heartbeat during query shed: status %d", w.Code)
	}

	// The bucket refills from the logical clock: one tick, one token.
	c.Tick(1)
	if w := doReq(h, http.MethodGet, "/api/v1/query", "", nil); w.Code != http.StatusOK {
		t.Fatalf("query after refill tick: status %d", w.Code)
	}
	if w := doReq(h, http.MethodGet, "/api/v1/query", "", nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second query after one-token refill: status %d, want 429", w.Code)
	}

	if got := c.Stats().Admission["requests_shed"]; got != 2 {
		t.Fatalf("requests_shed = %d, want 2", got)
	}
}

func TestAdmissionInFlightGateShedsByPriority(t *testing.T) {
	c, h := admissionRig(t)
	c.ConfigureAdmission(AdmissionConfig{MaxInFlight: 4})

	setInflight := func(n int) {
		c.adm.mu.Lock()
		c.adm.inflight = n
		c.adm.mu.Unlock()
	}

	// At half the bound, low-priority analyst traffic sheds while
	// high-priority fleet traffic still lands.
	setInflight(2)
	if w := doReq(h, http.MethodGet, "/api/v1/query", "", nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("low-priority at half bound: status %d, want 429", w.Code)
	}
	if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1", "max": -1}`, nil); w.Code != http.StatusOK {
		t.Fatalf("heartbeat at half bound: status %d, want 200", w.Code)
	}
	if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("lease at half bound: status %d, want 200", w.Code)
	}

	// At the full bound everything sheds.
	setInflight(4)
	if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1", "max": -1}`, nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("heartbeat at full bound: status %d, want 429", w.Code)
	}
	setInflight(0)

	ad := c.Stats().Admission
	if ad["requests_shed_inflight"] != 2 {
		t.Fatalf("requests_shed_inflight = %d, want 2 (%v)", ad["requests_shed_inflight"], ad)
	}
	if ad["requests_shed_priority_low"] != 1 || ad["requests_shed_priority_high"] != 1 {
		t.Fatalf("priority breakdown wrong: %v", ad)
	}
}

func TestAdmissionInFlightReleases(t *testing.T) {
	c, h := admissionRig(t)
	c.ConfigureAdmission(AdmissionConfig{MaxInFlight: 1})
	// Sequential requests each release their slot: none of these shed
	// even at MaxInFlight=1.
	for i := 0; i < 5; i++ {
		if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1", "max": -1}`, nil); w.Code != http.StatusOK {
			t.Fatalf("sequential heartbeat %d: status %d (in-flight slot leaked)", i, w.Code)
		}
	}
	c.adm.mu.Lock()
	inflight := c.adm.inflight
	c.adm.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight = %d after all requests finished, want 0", inflight)
	}
}

func TestAdmissionCountersInMetricsWalk(t *testing.T) {
	c, h := admissionRig(t)
	c.ConfigureAdmission(AdmissionConfig{
		RouteRates: map[string]RateLimit{"query": {PerTick: 0, Burst: 1}},
	})
	doReq(h, http.MethodGet, "/api/v1/query", "", nil) // consumes the only token
	doReq(h, http.MethodGet, "/api/v1/query", "", nil) // shed

	w := doReq(h, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	text := w.Body.String()
	for _, series := range []string{
		`obs_admission_events_total{name="requests_shed"} 1`,
		`obs_admission_events_total{name="requests_shed_rate_limit"} 1`,
		`obs_admission_events_total{name="requests_shed_route_query"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("missing %s in /metrics:\n%s", series, grepFamily(text, "obs_admission"))
		}
	}
}

// TestAdmissionOffByDefault pins the zero config: no limits, nothing
// shed, no admission counters.
func TestAdmissionOffByDefault(t *testing.T) {
	c, h := admissionRig(t)
	for i := 0; i < 50; i++ {
		if w := doReq(h, http.MethodGet, "/api/v1/query", "", nil); w.Code != http.StatusOK {
			t.Fatalf("unlimited controller shed request %d: status %d", i, w.Code)
		}
	}
	if ad := c.Stats().Admission; len(ad) != 0 {
		t.Fatalf("admission counters on an unlimited controller: %v", ad)
	}
}

// grepFamily extracts the exposition lines of one metric family for
// error messages.
func grepFamily(text, prefix string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) || strings.HasPrefix(line, "# TYPE "+prefix) {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		return fmt.Sprintf("(no %s* lines)", prefix)
	}
	return strings.Join(out, "\n")
}
