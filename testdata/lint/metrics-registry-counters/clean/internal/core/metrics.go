package core

import "github.com/afrinet/observatory/internal/obs"

// Count reads a family of the registry.
func Count(r *obs.Registry) int { return r.Counters("syncs") }
