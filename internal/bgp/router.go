// Package bgp computes interdomain routes over a topology under the
// standard Gao-Rexford policy model: routes learned from customers are
// exported to everyone; routes learned from peers or providers are
// exported only to customers. Every AS prefers customer routes over peer
// routes over provider routes, then shorter AS paths, then the lowest
// next-hop ASN (a deterministic stand-in for tie-breaking on router IDs).
//
// The router computes one spanning "routing tree" per destination AS with
// a three-phase BFS and caches it; paths for any source are read off the
// tree. Link failures (e.g. from a cable cut) invalidate the cache.
//
// Locking protocol: a read-mostly design. Router state (the adjacency
// view and the tree-slot map) sits behind a sync.RWMutex that is only
// ever held for map lookups and pointer swaps — never while a BFS runs.
// Each destination gets a treeSlot whose sync.Once is the per-destination
// singleflight: N goroutines asking for the same dest compute it once,
// different dests compute in parallel. A slot captures the adjacency view
// current at its creation, so invalidation (which swaps in a fresh slot
// map) can never hand a caller a tree computed from a stale view.
package bgp

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/afrinet/observatory/internal/topology"
)

// RouteType orders route preference: customer > peer > provider.
type RouteType int

const (
	RouteNone RouteType = iota
	RouteSelf
	RouteCustomer
	RoutePeer
	RouteProvider
)

func (r RouteType) String() string {
	switch r {
	case RouteSelf:
		return "self"
	case RouteCustomer:
		return "customer"
	case RoutePeer:
		return "peer"
	case RouteProvider:
		return "provider"
	default:
		return "none"
	}
}

// neighbor is one adjacency with its relationship seen from the local AS.
type neighbor struct {
	asn  topology.ASN
	link topology.LinkID
}

// adjacency holds each AS's neighbors grouped by relationship.
type adjacency struct {
	customers []neighbor
	providers []neighbor
	peers     []neighbor
}

// treeSlot is the singleflight cell for one destination's tree. adj is
// the adjacency view captured when the slot was created; once guards the
// single BFS; tree is written exactly once under the Once.
type treeSlot struct {
	once sync.Once
	adj  map[topology.ASN]*adjacency
	tree *Tree
}

// Router computes and caches per-destination routing trees.
type Router struct {
	topo *topology.Topology

	// base is the all-links-up adjacency, built and sorted once in New
	// and immutable afterwards. linkEnds maps each link to its two
	// endpoint ASes so failures can patch only the affected entries.
	base     map[topology.ASN]*adjacency
	linkEnds map[topology.LinkID][2]topology.ASN

	// gen increments on every cache invalidation. Callers that memoize
	// derived results (e.g. path-quality caches) key them by Gen().
	gen atomic.Uint64

	mu    sync.RWMutex // guards adj, trees, down (short critical sections only)
	adj   map[topology.ASN]*adjacency
	trees map[topology.ASN]*treeSlot
	down  map[topology.LinkID]bool
}

// New builds a router for the topology with all links up.
func New(t *topology.Topology) *Router {
	r := &Router{
		topo:     t,
		linkEnds: make(map[topology.LinkID][2]topology.ASN, len(t.Links)),
		trees:    make(map[topology.ASN]*treeSlot),
		down:     make(map[topology.LinkID]bool),
	}
	for i := range t.Links {
		l := &t.Links[i]
		r.linkEnds[l.ID] = [2]topology.ASN{l.A, l.B}
	}
	r.base = buildBaseAdjacency(t)
	r.adj = r.base
	return r
}

// buildBaseAdjacency builds the all-links-up adjacency with every
// neighbor list sorted by ASN. It runs once per Router.
func buildBaseAdjacency(t *topology.Topology) map[topology.ASN]*adjacency {
	adj := make(map[topology.ASN]*adjacency, len(t.ASes))
	get := func(a topology.ASN) *adjacency {
		x := adj[a]
		if x == nil {
			x = &adjacency{}
			adj[a] = x
		}
		return x
	}
	for i := range t.Links {
		l := &t.Links[i]
		switch l.Kind {
		case topology.CustomerProvider:
			get(l.A).providers = append(get(l.A).providers, neighbor{l.B, l.ID})
			get(l.B).customers = append(get(l.B).customers, neighbor{l.A, l.ID})
		case topology.PeerPeer:
			get(l.A).peers = append(get(l.A).peers, neighbor{l.B, l.ID})
			get(l.B).peers = append(get(l.B).peers, neighbor{l.A, l.ID})
		}
	}
	for _, x := range adj {
		sortNeighbors(x.customers)
		sortNeighbors(x.providers)
		sortNeighbors(x.peers)
	}
	return adj
}

func sortNeighbors(ns []neighbor) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].asn < ns[j].asn })
}

// applyDownLocked derives the current adjacency view from base and the
// down set. With nothing down it aliases base outright; otherwise only
// the ASes touching a failed link get filtered copies of their neighbor
// lists (filtering preserves sort order, so nothing is re-sorted).
// Must be called with r.mu held for writing.
func (r *Router) applyDownLocked() {
	if len(r.down) == 0 {
		r.adj = r.base
		return
	}
	affected := make(map[topology.ASN]bool, 2*len(r.down))
	for id := range r.down {
		ends := r.linkEnds[id]
		affected[ends[0]] = true
		affected[ends[1]] = true
	}
	adj := make(map[topology.ASN]*adjacency, len(r.base))
	for a, x := range r.base {
		if affected[a] {
			adj[a] = &adjacency{
				customers: r.filterUp(x.customers),
				providers: r.filterUp(x.providers),
				peers:     r.filterUp(x.peers),
			}
		} else {
			adj[a] = x
		}
	}
	r.adj = adj
}

// filterUp copies ns without the neighbors reached over a down link.
func (r *Router) filterUp(ns []neighbor) []neighbor {
	out := make([]neighbor, 0, len(ns))
	for _, n := range ns {
		if !r.down[n.link] {
			out = append(out, n)
		}
	}
	return out
}

// invalidateLocked drops every cached tree and bumps the generation.
// In-flight computations on old slots finish against their captured
// adjacency and are simply never re-read — callers that fetched a slot
// before the swap observe a tree consistent with the pre-change state,
// which is the same linearization as completing their call first.
// Must be called with r.mu held for writing.
func (r *Router) invalidateLocked() {
	r.trees = make(map[topology.ASN]*treeSlot)
	r.gen.Add(1)
}

// Invalidate drops all cached trees without changing link state. It
// exists for benchmarks and tests that need to re-measure a cold cache.
func (r *Router) Invalidate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalidateLocked()
}

// Gen returns the invalidation generation. It increments on every
// SetDownLinks that changed the failure set and on every Invalidate, so
// derived caches can be keyed by it.
func (r *Router) Gen() uint64 { return r.gen.Load() }

// SetDownLinks replaces the whole failure set in one call; it is the
// only writer of the router's failure state, used when a simulation
// re-realizes its failures. Equal old and new sets are a no-op that
// keeps every cached tree, so repeated re-realizations with an
// unchanged set cost nothing.
func (r *Router) SetDownLinks(ids []topology.LinkID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(ids) == len(r.down) {
		same := true
		for _, id := range ids {
			if !r.down[id] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	r.down = make(map[topology.LinkID]bool, len(ids))
	for _, id := range ids {
		r.down[id] = true
	}
	r.applyDownLocked()
	r.invalidateLocked()
}

// entry is one AS's best route toward the tree's destination.
type entry struct {
	via   topology.ASN
	link  topology.LinkID
	rtype RouteType
	hops  int
}

// Tree is the routing tree for one destination: for every AS that can
// reach the destination, its best next hop.
type Tree struct {
	Dest topology.ASN
	next map[topology.ASN]entry
}

// Reachable reports whether src has any route to the destination.
func (t *Tree) Reachable(src topology.ASN) bool {
	if src == t.Dest {
		return true
	}
	_, ok := t.next[src]
	return ok
}

// Size returns the number of ASes with a route to the destination
// (excluding the destination itself).
func (t *Tree) Size() int { return len(t.next) }

// Tree returns the routing tree for dest, computing and caching it on
// first use. Concurrent callers for the same dest share one computation;
// different dests compute in parallel. Trees are immutable once built
// and safe for concurrent reads.
func (r *Router) Tree(dest topology.ASN) *Tree {
	r.mu.RLock()
	slot := r.trees[dest]
	r.mu.RUnlock()
	if slot == nil {
		r.mu.Lock()
		slot = r.trees[dest]
		if slot == nil {
			slot = &treeSlot{adj: r.adj}
			r.trees[dest] = slot
		}
		r.mu.Unlock()
	}
	// The BFS runs outside the router lock: only callers waiting on this
	// very destination block here.
	slot.once.Do(func() {
		slot.tree = computeTree(r.topo, slot.adj, dest)
	})
	return slot.tree
}

// computeTree runs the three-phase valley-free BFS over an immutable
// adjacency snapshot. It is a pure function of (topo, adj, dest) and
// holds no locks, so distinct destinations compute concurrently.
func computeTree(topo *topology.Topology, adjMap map[topology.ASN]*adjacency, dest topology.ASN) *Tree {
	t := &Tree{Dest: dest, next: make(map[topology.ASN]entry)}
	if _, ok := topo.ASes[dest]; !ok {
		return t
	}

	better := func(old entry, cand entry) bool {
		if old.rtype == RouteNone {
			return true
		}
		if cand.rtype != old.rtype {
			return cand.rtype < old.rtype
		}
		if cand.hops != old.hops {
			return cand.hops < old.hops
		}
		return cand.via < old.via
	}
	get := func(a topology.ASN) entry {
		if a == dest {
			return entry{rtype: RouteSelf}
		}
		return t.next[a] // zero value has RouteNone
	}
	set := func(a topology.ASN, e entry) bool {
		if a == dest {
			return false
		}
		if old := get(a); better(old, e) {
			t.next[a] = e
			return true
		}
		return false
	}

	// Phase 1: customer routes climb provider edges from the
	// destination. BFS level by level, nodes in ascending ASN order so
	// ties resolve to the lowest next hop.
	frontier := []topology.ASN{dest}
	hops := 0
	inP1 := map[topology.ASN]bool{dest: true}
	for len(frontier) > 0 {
		hops++
		var next []topology.ASN
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for _, u := range frontier {
			a := adjMap[u]
			if a == nil {
				continue
			}
			for _, prov := range a.providers {
				if set(prov.asn, entry{via: u, link: prov.link, rtype: RouteCustomer, hops: hops}) {
					if !inP1[prov.asn] {
						inP1[prov.asn] = true
						next = append(next, prov.asn)
					}
				}
			}
		}
		frontier = next
	}

	// Phase 2: one peer hop from any AS holding a self/customer route.
	var p1nodes []topology.ASN
	p1nodes = append(p1nodes, dest)
	for a, e := range t.next {
		if e.rtype == RouteCustomer {
			p1nodes = append(p1nodes, a)
		}
	}
	sort.Slice(p1nodes, func(i, j int) bool { return p1nodes[i] < p1nodes[j] })
	for _, u := range p1nodes {
		a := adjMap[u]
		if a == nil {
			continue
		}
		uh := 0
		if u != dest {
			uh = t.next[u].hops
		}
		for _, p := range a.peers {
			set(p.asn, entry{via: u, link: p.link, rtype: RoutePeer, hops: uh + 1})
		}
	}

	// Phase 3: provider routes descend customer edges from every AS
	// that has any route, propagating through further customers.
	type seed struct {
		asn  topology.ASN
		hops int
	}
	var seeds []seed
	seeds = append(seeds, seed{dest, 0})
	for a, e := range t.next {
		seeds = append(seeds, seed{a, e.hops})
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].hops != seeds[j].hops {
			return seeds[i].hops < seeds[j].hops
		}
		return seeds[i].asn < seeds[j].asn
	})
	// Dijkstra-style expansion by hop count (uniform weights, so a
	// sorted queue sweep is enough).
	queue := seeds
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		// Skip stale queue entries.
		if u.asn != dest {
			if e, ok := t.next[u.asn]; !ok || e.hops != u.hops {
				continue
			}
		}
		a := adjMap[u.asn]
		if a == nil {
			continue
		}
		for _, cust := range a.customers {
			if set(cust.asn, entry{via: u.asn, link: cust.link, rtype: RouteProvider, hops: u.hops + 1}) {
				queue = append(queue, seed{cust.asn, u.hops + 1})
			}
		}
	}
	// Queue sweep above appends out of order; a second sweep settles
	// any node relaxed after being dequeued. Uniform weights make one
	// extra settling pass sufficient in theory only for BFS order, so
	// loop until fixed point (bounded by graph diameter, tiny here).
	for changed := true; changed; {
		changed = false
		for _, asn := range topo.ASNs() {
			e, ok := t.next[asn]
			if !ok && asn != dest {
				continue
			}
			h := 0
			if asn != dest {
				h = e.hops
			}
			a := adjMap[asn]
			if a == nil {
				continue
			}
			for _, cust := range a.customers {
				if set(cust.asn, entry{via: asn, link: cust.link, rtype: RouteProvider, hops: h + 1}) {
					changed = true
				}
			}
		}
	}
	return t
}

// Hop is one step of an AS-level path.
type Hop struct {
	ASN  topology.ASN
	Link topology.LinkID // link used to reach this AS (undefined for the first hop)
}

// Path is an AS-level forwarding path.
type Path struct {
	Hops []Hop
}

// ASNs returns the AS sequence of the path.
func (p Path) ASNs() []topology.ASN {
	out := make([]topology.ASN, len(p.Hops))
	for i, h := range p.Hops {
		out[i] = h.ASN
	}
	return out
}

// Len returns the number of ASes on the path.
func (p Path) Len() int { return len(p.Hops) }

// Path returns the forwarding path from src to dst, or ok=false when dst
// is unreachable from src.
func (r *Router) Path(src, dst topology.ASN) (Path, bool) {
	if src == dst {
		return Path{Hops: []Hop{{ASN: src}}}, true
	}
	tree := r.Tree(dst)
	if !tree.Reachable(src) {
		return Path{}, false
	}
	p := Path{Hops: []Hop{{ASN: src}}}
	at := src
	for at != dst {
		e, ok := tree.next[at]
		if !ok {
			return Path{}, false
		}
		p.Hops = append(p.Hops, Hop{ASN: e.via, Link: e.link})
		at = e.via
		if len(p.Hops) > len(r.topo.ASNs())+1 {
			// A cycle here would be a routing-model bug; fail loudly in
			// tests rather than looping.
			panic("bgp: forwarding loop")
		}
	}
	return p, true
}
