package obs

import "time"

// Start reads the wall clock, outside the replay-deterministic packages.
func Start() time.Time { return time.Now() }
