package obs

// Registry holds counter families.
type Registry struct{ n map[string]int }

// Counters is a family.
func (r *Registry) Counters(family string) int { return r.n[family] }

// AddCounters bridges a second counter system.
func (r *Registry) AddCounters(set map[string]int) { r.n = set }
