package core

// admission.go — controller-side admission control: per-route token
// buckets plus a bounded in-flight gate with priority shedding. The
// paper's controller serves two very different clienteles: field probes
// (heartbeats, leases, result uploads — small, frequent, and the whole
// point of the platform) and analysts (queries and results scans —
// large, bursty, and deferrable). Under overload the analyst traffic is
// shed first, as 429 + Retry-After through the uniform error envelope,
// so heartbeats and leases keep landing and the fleet stays alive.
//
// Like everything else in this package the layer is clock-free: token
// buckets refill from Controller.Tick (the logical clock), never from
// wall time, so admission behavior is deterministic in tests. The
// refill rides the tick but is NOT journaled — admission is run-scoped
// operational state, like the durability and store counters, and replay
// must not consume or grant tokens.

import (
	"fmt"
	"sync"

	"github.com/afrinet/observatory/internal/obs"
)

// RoutePriority classes a route for load shedding.
type RoutePriority int

const (
	// PriorityHigh marks field traffic (probe register/lease/results/
	// heartbeat, experiment submit/approve) and operational reads
	// (health, metrics): shed only at the full in-flight bound.
	PriorityHigh RoutePriority = iota
	// PriorityLow marks deferrable analyst traffic (listings, queries,
	// results scans, traces): shed early, at half the in-flight bound,
	// so capacity is reserved for the fleet.
	PriorityLow
)

func (p RoutePriority) String() string {
	if p == PriorityLow {
		return "low"
	}
	return "high"
}

// RateLimit is one route's token bucket: Burst tokens capacity,
// refilled at PerTick tokens per controller tick. A request consumes
// one token; an empty bucket sheds the request.
type RateLimit struct {
	PerTick float64
	Burst   float64
}

// AdmissionConfig bounds the controller's concurrent load. The zero
// value admits everything (no limits) — the pre-admission behavior.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently-executing requests. High-priority
	// routes are admitted until the full bound; low-priority routes only
	// until half of it, so a flood of analyst queries cannot starve
	// probe heartbeats. 0 means unbounded.
	MaxInFlight int
	// RouteRates attaches token buckets to route names (the Name field
	// of the route table, e.g. "query"). Routes without an entry are not
	// rate-limited.
	RouteRates map[string]RateLimit
	// RetryAfterSeconds is the Retry-After delay suggested on shed
	// responses (default 1).
	RetryAfterSeconds int
}

// tokenBucket is one route's refillable budget.
type tokenBucket struct {
	tokens float64
	limit  RateLimit
}

// AdmissionGate evaluates every matched request before its handler runs:
// a priority-aware in-flight bound plus per-route token buckets refilled
// from a logical tick, never from wall time. A controller owns one; a
// federation coordinator runs its own in front of the shard tier.
type AdmissionGate struct {
	mu       sync.Mutex
	cfg      AdmissionConfig
	buckets  map[string]*tokenBucket
	inflight int
	stats    *obs.Family
}

// NewAdmissionGate builds a gate with the given limits, counting what it
// sheds into reg's obs_admission_events_total; the zero config admits
// everything.
func NewAdmissionGate(cfg AdmissionConfig, reg *obs.Registry) *AdmissionGate {
	g := &AdmissionGate{stats: reg.Counters("obs_admission_events_total")}
	g.configure(cfg)
	return g
}

// configure replaces the limits; buckets start full.
func (a *AdmissionGate) configure(cfg AdmissionConfig) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg = cfg
	a.buckets = make(map[string]*tokenBucket, len(cfg.RouteRates))
	for name, rl := range cfg.RouteRates {
		a.buckets[name] = &tokenBucket{tokens: rl.Burst, limit: rl}
	}
}

// Refill adds n ticks' worth of tokens to every bucket, capped at each
// bucket's burst. Driven by the owner's Tick, outside any journaled apply.
func (a *AdmissionGate) Refill(n int) {
	if n <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range a.buckets {
		b.tokens += float64(n) * b.limit.PerTick
		if b.tokens > b.limit.Burst {
			b.tokens = b.limit.Burst
		}
	}
}

// RetryAfterSeconds is the delay suggested to shed clients.
func (a *AdmissionGate) RetryAfterSeconds() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.RetryAfterSeconds > 0 {
		return a.cfg.RetryAfterSeconds
	}
	return 1
}

// Admit evaluates one request. ok means the request may run and release
// must be called when it finishes; !ok means shed (the caller responds
// 429 + Retry-After). The in-flight gate is checked before the token
// bucket so a shed request never consumes a token.
func (a *AdmissionGate) Admit(route string, pri RoutePriority) (release func(), ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if max := a.cfg.MaxInFlight; max > 0 {
		limit := max
		if pri == PriorityLow {
			limit = max / 2
			if limit < 1 {
				limit = 1
			}
		}
		if a.inflight >= limit {
			a.shedLocked(route, pri, "inflight")
			return nil, false
		}
	}
	if b := a.buckets[route]; b != nil {
		if b.tokens < 1 {
			a.shedLocked(route, pri, "rate_limit")
			return nil, false
		}
		b.tokens--
	}
	a.inflight++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inflight--
			a.mu.Unlock()
		})
	}, true
}

// shedLocked counts one rejected request.
func (a *AdmissionGate) shedLocked(route string, pri RoutePriority, why string) {
	a.stats.Inc("requests_shed")
	a.stats.Inc("requests_shed_" + why)
	a.stats.Inc("requests_shed_priority_" + pri.String())
	a.stats.Inc("requests_shed_route_" + route)
}

// Snapshot returns the shed counters for the stats report.
func (a *AdmissionGate) Snapshot() map[string]int64 {
	return a.stats.Snapshot()
}

// ConfigureAdmission installs admission limits on the controller.
// cmd/obsd wires its -max-inflight / -rate-* flags through here; the
// zero config removes all limits. Call before or after Handler — the
// router reads the shared admission state per request.
func (c *Controller) ConfigureAdmission(cfg AdmissionConfig) {
	c.adm.configure(cfg)
}

// errRateLimited is the envelope message for shed requests.
func errRateLimited(route string) error {
	return fmt.Errorf("core: controller over capacity, %s request shed; honor Retry-After", route)
}
