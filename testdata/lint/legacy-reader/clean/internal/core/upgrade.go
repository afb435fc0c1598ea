package core

import (
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/store"
)

// Upgrade reads the past.
func Upgrade(s *store.Store, dir string) (int, string) {
	return len(s.KeySet("e1")), journal.OpenLegacy(dir)
}
