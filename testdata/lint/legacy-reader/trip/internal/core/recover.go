package core

import (
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/store"
)

// Recover reads the past itself.
func Recover(s *store.Store, dir string) (int, string) {
	keys := s.KeySet                                // trip: internal/store.Store.KeySet
	return len(keys("e1")), journal.OpenLegacy(dir) // trip: internal/journal.OpenLegacy
}
