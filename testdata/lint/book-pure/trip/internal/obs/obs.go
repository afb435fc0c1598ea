package obs

// Family is a set of named counters.
type Family struct{ n map[string]int64 }

// Inc counts one event.
func (f *Family) Inc(name string) { f.n[name]++ }
