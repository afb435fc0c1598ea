package geoloc

// splitmix is a local copy of the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb // trip: 10723151780598845931
	return x ^ (x >> 31)
}

// Draw hashes an address under the database seed.
func Draw(seed, a uint64) uint64 { return splitmix(seed ^ a) }
