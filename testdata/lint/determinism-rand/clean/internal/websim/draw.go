package websim

type splitmix struct{ s uint64 }

// Intn draws from a seeded splitmix64 stream.
func (m *splitmix) Intn(n int) int {
	m.s += 0x9e3779b97f4a7c15
	return int(m.s % uint64(n))
}

var rand = &splitmix{s: 42}

// Draw rolls a die from a stream named like the package it replaces.
func Draw() int { return rand.Intn(6) }
