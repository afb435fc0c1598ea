// Package obs is the observatory's stdlib-only observability layer:
// lock-free log-scaled latency histograms, counter and gauge families,
// per-request span traces held in a bounded ring, and Prometheus text
// exposition with deterministic ordering.
//
// The package exists so the rest of the system can stay
// replay-deterministic: internal/core, internal/journal, and
// internal/store are forbidden from reading the wall clock (see the
// root lint_test.go), so every time.Now lives here. Instrumented code
// starts a Timer (or a Span) and hands the elapsed duration to a
// Histogram; none of the instrumentation feeds back into control-plane
// decisions.
//
// # Histograms
//
// Histogram is a fixed-shape log2-bucketed latency histogram recorded
// with atomic adds only — no locks on the observe path — so it is safe
// (and cheap) on hot paths like store ingest. Snapshots derive
// mean/p50/p90/p99/max from the bucket counts.
//
// # Traces
//
// A Trace is one request's span tree (handler → mutator → journal
// fsync / store append). Spans are built by a single goroutine; the
// finished, immutable TraceView is published to a TraceRing, a bounded
// ring buffer queryable for the N slowest requests
// (GET /api/v1/debug/traces?slowest=N in the control plane).
//
// # Exposition
//
// Registry collects named histogram series (with optional label pairs)
// and counter and gauge families, and renders them in Prometheus text
// format with stable ordering, served at GET /metrics.
package obs

import "time"

// Timer marks a start instant. It exists so packages banned from
// calling time.Now directly (core, journal, store) can still measure
// durations: the wall-clock reads happen here.
type Timer struct {
	start time.Time
}

// StartTimer captures the current instant.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the time since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }
