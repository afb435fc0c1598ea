package store

// Store is the results store.
type Store struct{ keys map[string]bool }

// KeySet walks every key an experiment stored.
func (s *Store) KeySet(exp string) map[string]bool { return s.keys }

// Index is not the store.
type Index struct{}

// KeySet is the index's own.
func (Index) KeySet(exp string) map[string]bool { return nil }
