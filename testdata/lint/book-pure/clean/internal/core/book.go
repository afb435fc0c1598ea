package core

import "sort"

// book is the journaled state alone; its counters are whatever it is handed.
type book struct {
	probes map[string]int64
	stats  interface{ Inc(name string) }
	wake   func(probeID string)
}

// sweep visits the probes in id order.
func (b *book) sweep() {
	ids := make([]string, 0, len(b.probes))
	for id := range b.probes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b.stats.Inc("swept")
		b.wake(id)
	}
}
