package topology

// pick is a truncated round with no final multiply: it shares only the
// first two constants, so it stays local.
func pick(salt, hop uint64) uint64 {
	h := salt*0x9e3779b97f4a7c15 + hop
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	return h ^ h>>27
}

// Pick draws a conduit index.
func Pick(salt, hop uint64, n int) int { return int(pick(salt, hop) % uint64(n)) }
