package core

// observability.go wires internal/obs into the control plane: the
// metric registry behind GET /metrics, the trace ring behind
// GET /api/v1/debug/traces, and the span plumbing that lets a request
// trace descend from the HTTP handler through the mutator into the
// journal append/fsync and the results-store append. The controller's
// own packages never read the wall clock (the root lint_test.go enforces
// it); every timing measurement here goes through obs.Timer / obs.Span.

import (
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
)

// Metric families exposed on /metrics. Histogram buckets are log-scaled
// seconds (1µs .. ~67s, then +Inf).
const (
	// MetricHTTP has one series per route (label route=<route name>).
	MetricHTTP = "obs_http_request_seconds"
	// MetricMutator has one series per journaled mutator kind
	// (label op=<journal op>), covering append+apply+snapshot.
	MetricMutator = "obs_mutator_seconds"
	// MetricRecover times the phases of the Recover that built this
	// controller (phase=journal_open|store_open|snapshot|decode|replay|
	// reconcile), one observation each.
	MetricRecover = "obs_recover_seconds"
)

// initObs builds the controller's registry, its counter and gauge
// families, trace ring, and cached histogram pointers. Called once from
// NewController before any store or journal is attached; the store and
// the admission gate count into the same registry.
func (c *Controller) initObs() {
	c.reg = obs.NewRegistry()
	c.stats = c.reg.Counters("obs_pipeline_events_total")
	c.dur = c.reg.Counters(journal.MetricEvents)
	c.durGauge = c.reg.Gauges(journal.MetricGauge)
	c.adm = NewAdmissionGate(AdmissionConfig{}, c.reg)
	c.ring = obs.NewTraceRing(DefaultTraceRing)
	c.mutHist = make(map[string]*obs.Histogram)
	for _, kind := range []string{
		opRegister, opSubmitCols, opApprove, opReject, opSync, opTick, opRequeue,
	} {
		c.mutHist[kind] = c.reg.Hist(MetricMutator, "op", kind)
	}
}

// setSpanLocked installs the active request span (nil when untraced)
// and returns the restore function; callers defer it so nested
// mutations on the same goroutine unwind correctly. Guarded by c.mu
// like every other span access.
func (c *Controller) setSpanLocked(s *obs.Span) func() {
	prev := c.span
	c.span = s
	return func() { c.span = prev }
}

// Observability exposes the controller's metric registry (cmd/obsd
// mounts it on the debug listener; tests inspect snapshots).
func (c *Controller) Observability() *obs.Registry { return c.reg }
