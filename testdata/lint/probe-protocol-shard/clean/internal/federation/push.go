package federation

import "github.com/afrinet/observatory/internal/core"

// Push hands a partition to a shard through core.Backend.
func Push(b core.Backend, id string) error { return b.Submit(id) }
