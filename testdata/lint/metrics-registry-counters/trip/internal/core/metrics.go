package core

import (
	"github.com/afrinet/observatory/internal/metrics"
	"github.com/afrinet/observatory/internal/obs"
)

// Bridge hands a counter set to the registry.
func Bridge(r *obs.Registry, set metrics.CounterSet) { // trip: internal/metrics.CounterSet
	r.AddCounters(set) // trip: internal/obs.Registry.AddCounters
}
