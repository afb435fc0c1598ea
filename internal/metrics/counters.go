package metrics

import (
	"sort"
	"sync"
)

// CounterSet is a registry of named counters — monotonic, but for the
// few an owner Sets — safe for concurrent use. The control plane uses one
// to expose lease, requeue, dedup, and liveness event counts over its
// stats endpoint.
type CounterSet struct {
	mu     sync.Mutex
	counts map[string]int64
}

// NewCounterSet creates an empty counter registry.
func NewCounterSet() *CounterSet {
	return &CounterSet{counts: make(map[string]int64)}
}

// Add increments the named counter by delta (creating it at zero first).
func (s *CounterSet) Add(name string, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[name] += delta
}

// Set makes the named counter a last-value reading (the size of the
// newest snapshot, say) rather than a running count.
func (s *CounterSet) Set(name string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[name] = v
}

// Inc is Add(name, 1).
func (s *CounterSet) Inc(name string) { s.Add(name, 1) }

// Get returns the counter's value (zero when never incremented).
func (s *CounterSet) Get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// Snapshot returns a copy of every counter.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Names returns the registered counter names, sorted.
func (s *CounterSet) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.counts))
	for k := range s.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
