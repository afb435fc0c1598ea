package store

// Store is the results store.
type Store struct{ keys map[string]bool }

// KeySet walks every key an experiment stored.
func (s *Store) KeySet(exp string) map[string]bool { return s.keys }
