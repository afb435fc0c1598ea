package geoloc

import "github.com/afrinet/observatory/internal/splitmix"

// Draw hashes an address under the database seed.
func Draw(seed, a uint64) uint64 { return splitmix.Mix(seed ^ a) }
