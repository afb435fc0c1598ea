package topology

import (
	"container/heap"
	"sort"

	"github.com/afrinet/observatory/internal/splitmix"
)

// Physical realization maps AS-level links onto the country-level conduit
// graph (subsea cable segments plus terrestrial routes). Every
// inter-country AS adjacency is carried by a concrete sequence of
// conduits, so a cable cut maps to a precise set of broken adjacencies —
// the mechanism behind the paper's outage analysis (Section 5).

// ConduitFilter reports whether a conduit is usable. The nil filter means
// "everything up".
type ConduitFilter func(ConduitID) bool

// countryEdge is one usable physical edge out of a country.
type countryEdge struct {
	to      string
	conduit int // index into Topology.Conduits
	km      float64
}

// physGraph is the country-level adjacency built from the conduit list.
type physGraph struct {
	adj map[string][]countryEdge
}

func buildPhysGraph(t *Topology, up ConduitFilter) *physGraph {
	g := &physGraph{adj: make(map[string][]countryEdge)}
	for i := range t.Conduits {
		c := &t.Conduits[i]
		if up != nil && !up(c.ID) {
			continue
		}
		g.adj[c.FromCountry] = append(g.adj[c.FromCountry], countryEdge{c.ToCountry, i, c.KM})
		g.adj[c.ToCountry] = append(g.adj[c.ToCountry], countryEdge{c.FromCountry, i, c.KM})
	}
	// Deterministic neighbor order: by distance, then conduit index.
	for k := range g.adj {
		edges := g.adj[k]
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].km != edges[j].km {
				return edges[i].km < edges[j].km
			}
			return edges[i].conduit < edges[j].conduit
		})
	}
	return g
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	country string
	dist    float64
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].country < q[j].country
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// shortest returns the conduit indexes of the minimum-distance path
// between two countries, or ok=false when they are physically
// disconnected.
func (g *physGraph) shortest(from, to string) (path []int, km float64, ok bool) {
	if from == to {
		return nil, 0, true
	}
	dist := map[string]float64{from: 0}
	prevEdge := map[string]int{}
	prevNode := map[string]string{}
	done := map[string]bool{}
	q := &pq{{from, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.country] {
			continue
		}
		done[it.country] = true
		if it.country == to {
			break
		}
		for _, e := range g.adj[it.country] {
			nd := it.dist + e.km
			if d, seen := dist[e.to]; !seen || nd < d-1e-9 {
				dist[e.to] = nd
				prevEdge[e.to] = e.conduit
				prevNode[e.to] = it.country
				heap.Push(q, pqItem{e.to, nd})
			}
		}
	}
	if !done[to] {
		return nil, 0, false
	}
	for at := to; at != from; at = prevNode[at] {
		path = append(path, prevEdge[at])
	}
	// Reverse into from->to order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[to], true
}

// Realizer maps country pairs to concrete conduit sequences under a
// fixed availability filter. Different links between the same country
// pair are spread across parallel conduits (capacity-weighted, salted by
// link id), the way operators buy capacity on different cable systems —
// which is what makes a single cable cut hit a *subset* of a country's
// adjacencies and overload the survivors.
type Realizer struct {
	t *Topology
	g *physGraph
	// nodePath caches the country waypoint sequence per pair.
	nodePaths map[[2]string][]string
	// parallel caches, per country hop, the candidate conduit indexes.
	parallel map[[2]string][]int
}

// NewRealizer builds a realizer for the given availability (nil = all up).
func NewRealizer(t *Topology, up ConduitFilter) *Realizer {
	return &Realizer{
		t:         t,
		g:         buildPhysGraph(t, up),
		nodePaths: make(map[[2]string][]string),
		parallel:  make(map[[2]string][]int),
	}
}

// nodePath returns the waypoint countries of the shortest path
// (inclusive of endpoints), or nil when disconnected.
func (r *Realizer) nodePath(from, to string) []string {
	key := [2]string{from, to}
	if p, ok := r.nodePaths[key]; ok {
		return p
	}
	idxs, _, ok := r.g.shortest(from, to)
	var path []string
	if ok {
		path = append(path, from)
		at := from
		for _, ci := range idxs {
			c := &r.t.Conduits[ci]
			next := c.ToCountry
			if next == at {
				next = c.FromCountry
			}
			path = append(path, next)
			at = next
		}
	}
	r.nodePaths[key] = path
	return path
}

// candidates returns usable conduits between two adjacent countries
// whose length is within 35% of the best one (parallel systems).
func (r *Realizer) candidates(a, b string) []int {
	key := [2]string{a, b}
	if b < a {
		key = [2]string{b, a}
	}
	if c, ok := r.parallel[key]; ok {
		return c
	}
	var out []int
	best := -1.0
	for _, e := range r.g.adj[a] {
		if e.to != b {
			continue
		}
		if best < 0 || e.km < best {
			best = e.km
		}
	}
	for _, e := range r.g.adj[a] {
		if e.to == b && e.km <= best*1.35 {
			out = append(out, e.conduit)
		}
	}
	sort.Ints(out)
	r.parallel[key] = out
	return out
}

// PathFor realizes one link over the physical graph. The salt (the link
// id) deterministically selects among parallel conduits on each hop,
// weighted by conduit capacity.
func (r *Realizer) PathFor(from, to string, salt uint64) ([]Segment, bool) {
	if from == to {
		return nil, true
	}
	nodes := r.nodePath(from, to)
	if nodes == nil {
		return nil, false
	}
	segs := make([]Segment, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		a, b := nodes[i], nodes[i+1]
		cands := r.candidates(a, b)
		if len(cands) == 0 {
			return nil, false
		}
		ci := cands[weightedPick(r.t, cands, salt, uint64(i))]
		c := &r.t.Conduits[ci]
		segs = append(segs, Segment{FromCountry: a, ToCountry: b, Conduit: c.ID, KM: c.KM})
	}
	return segs, true
}

// weightedPick selects an index into cands proportionally to conduit
// capacity, deterministically from the salt by a truncated SplitMix64 round.
func weightedPick(t *Topology, cands []int, salt, hop uint64) int {
	if len(cands) == 1 {
		return 0
	}
	var total float64
	for _, ci := range cands {
		total += t.Conduits[ci].Capacity
	}
	h := salt*0x9e3779b97f4a7c15 + hop
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	x := splitmix.Unit(h^(h>>27)) * total
	for i, ci := range cands {
		x -= t.Conduits[ci].Capacity
		if x <= 0 {
			return i
		}
	}
	return len(cands) - 1
}

// RealizeLink computes one link's physical path. Ordinary links run
// between the endpoints' countries. Exchange-fabric links are different:
// both ports sit at the exchange, so the physical path is each member's
// backhaul from its home country to the exchange city — and zero for a
// member colocated there or for a content off-net cache parked at the
// fabric. ok is false when a required backhaul leg is physically down.
func RealizeLink(r *Realizer, t *Topology, l *Link) ([]Segment, bool) {
	ca := t.ASes[l.A].Country
	cb := t.ASes[l.B].Country
	if l.Via == 0 {
		if ca == cb {
			return nil, true
		}
		return r.PathFor(ca, cb, uint64(l.ID))
	}
	x := t.IXPs[l.Via]
	if x == nil {
		return nil, true
	}
	var segs []Segment
	for _, end := range []struct {
		asn  ASN
		ctry string
	}{{l.A, ca}, {l.B, cb}} {
		if end.ctry == x.Country || hasOffNet(t.ASes[end.asn], l.Via) {
			continue // port-side presence: no backhaul
		}
		leg, ok := r.PathFor(end.ctry, x.Country, uint64(l.ID)^uint64(end.asn))
		if !ok {
			return nil, false
		}
		segs = append(segs, leg...)
	}
	return segs, true
}

func hasOffNet(as *AS, x IXPID) bool {
	if as == nil {
		return false
	}
	for _, id := range as.OffNetAt {
		if id == x {
			return true
		}
	}
	return false
}

// realizeLinks assigns the default (all-conduits-up) physical path to
// every link, then calibrates conduit capacities to the resulting
// demand.
func realizeLinks(t *Topology) {
	r := NewRealizer(t, nil)
	for i := range t.Links {
		l := &t.Links[i]
		segs, _ := RealizeLink(r, t, l)
		l.Path = segs
	}
	calibrateCapacities(t)
}

// calibrateCapacities sets each conduit's capacity to its steady-state
// load times a vintage-dependent headroom: legacy cables run hot (they
// were sized for yesterday's demand), new systems are over-provisioned.
// This is what turns a corridor cut into congestion on the survivors —
// the paper's "backups are often over-subscribed" dynamic.
func calibrateCapacities(t *Topology) {
	loads := make(map[ConduitID]int)
	for i := range t.Links {
		for _, s := range t.Links[i].Path {
			loads[s.Conduit]++
		}
	}
	for i := range t.Conduits {
		c := &t.Conduits[i]
		headroom := 1.45 // legacy subsea
		switch {
		case !c.IsSubsea():
			headroom = 1.7
		case c.Born >= 2015:
			headroom = 2.6
		}
		load := float64(loads[c.ID])
		cap := load * headroom
		if cap < 4 {
			cap = 4 // idle conduits keep a floor
		}
		c.Capacity = cap
	}
}

// ConduitByID returns the conduit with the given id.
func (t *Topology) ConduitByID(id ConduitID) *Conduit {
	i := int(id) - 1
	if i < 0 || i >= len(t.Conduits) {
		return nil
	}
	return &t.Conduits[i]
}
