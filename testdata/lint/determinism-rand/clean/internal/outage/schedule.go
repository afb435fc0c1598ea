package outage

import "math/rand"

// Schedule draws once, serially, outside the websteps and DNS stacks.
func Schedule(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(10) }
