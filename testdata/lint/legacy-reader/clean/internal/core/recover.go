package core

import "github.com/afrinet/observatory/internal/store"

// Recover reads only the current format.
func Recover(ix store.Index) int { return len(ix.KeySet("e1")) }
