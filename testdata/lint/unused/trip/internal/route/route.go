package route

// Table is a routing table.
type Table struct{ prefixes []string }

// Len is live.
func (t *Table) Len() int { return len(t.prefixes) }

// Count is live.
func (t *Table) Count() int { return t.Len() }

// Prefixes is dead: only the router's method of that name is called.
func (t *Table) Prefixes() []string { return t.prefixes } // trip: internal/route.Table.Prefixes

// Router is a router.
type Router struct{ t Table }

// Prefixes is live.
func (r *Router) Prefixes() []string { return r.t.prefixes }

// New is live.
func New() *Router { return &Router{} }

// Orphan calls only itself.
func Orphan(n int) int { // trip: internal/route.Orphan
	if n == 0 {
		return 0
	}
	return Orphan(n - 1)
}

const limit = 4 // trip: internal/route.limit
