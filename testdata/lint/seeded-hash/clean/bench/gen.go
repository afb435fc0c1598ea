package bench

// mix is outside internal/, which the rule does not cover.
func mix(x uint64) uint64 { return (x ^ (x >> 27)) * 0x94d049bb133111eb }

// Seed draws a workload's seed.
func Seed(x uint64) uint64 { return mix(x) }
