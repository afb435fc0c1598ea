// Package splitmix is the one seeded hash behind deterministic per-event
// randomness. Every stochastic decision of the synthetic Internet's data
// plane (hop response, jitter, loss, placement, power, interference) is a
// pure function of a package's seed, its salts and the event coordinates,
// so repeated measurements of an unchanged network return identical
// results and the whole repository is reproducible run-to-run.
package splitmix

// Mix is the SplitMix64 finalizer: the generator's output from state x.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fold folds each value into h in turn: h = Mix(h ^ v).
func Fold(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		h = Mix(h ^ v)
	}
	return h
}

// String folds the runes of s into h as Fold folds values.
func String(h uint64, s string) uint64 {
	for _, r := range s {
		h = Mix(h ^ uint64(r))
	}
	return h
}

// Unit maps a hash to [0, 1).
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Pick maps a hash to [0, n).
func Pick(h uint64, n int) int { return int(h % uint64(n)) }
