// Package netsim is the data plane of the synthetic Internet: it expands
// BGP AS-level paths into router-level traceroutes with realistic
// addressing (including IXP peering-LAN hops), models latency from the
// physical realization of each link over cables and terrestrial routes,
// and applies failures (cable cuts) with re-realization, congestion, and
// loss — the dynamics behind the paper's outage analysis.
package netsim

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/topology"
)

// latVal is a memoized linkLatency result, valid for one failure epoch.
type latVal struct {
	ms, loss float64
	up       bool
}

// latMemoT holds the per-epoch link-latency memo. reRealize swaps in a
// fresh one, so entries are only ever read in the epoch they were
// computed for.
type latMemoT struct{ m sync.Map } // topology.LinkID -> latVal

// pqVal is a memoized PathQuality result.
type pqVal struct {
	rtt, loss float64
	ok        bool
}

// pqMemoT holds PathQuality results valid for one (router generation,
// failure epoch) pair; any state change makes the whole memo stale.
type pqMemoT struct {
	gen, epoch uint64
	m          sync.Map // src<<32|dst -> pqVal
}

// trKey identifies one traceroute query.
type trKey struct {
	src topology.ASN
	dst netx.Addr
}

// trMemoT holds Traceroute results valid for one (router generation,
// failure epoch) pair. Memoized traceroutes share their Hops slice;
// every consumer treats Traceroute as read-only (the wire layer copies
// into its own HopRecord format).
type trMemoT struct {
	gen, epoch uint64
	m          sync.Map // trKey -> Traceroute
}

// Net is a simulated data plane over a topology and its routing.
type Net struct {
	topo   *topology.Topology
	router *bgp.Router
	seed   uint64

	// epoch increments on every re-realization (failure-state change);
	// derived caches are keyed by it.
	epoch   atomic.Uint64
	latMemo atomic.Pointer[latMemoT]
	pqMemo  atomic.Pointer[pqMemoT]
	trMemo  atomic.Pointer[trMemoT]

	// mu is read-mostly: measurement reads (traceroute, path quality,
	// link state) take the read lock and run concurrently; failure
	// changes (cable cuts/restores) take the write lock.
	mu sync.RWMutex
	// conduitDown marks failed physical segments (by cable cuts).
	conduitDown map[topology.ConduitID]bool
	// cutCables tracks which cables are currently cut.
	cutCables map[topology.CableID]bool
	// repath caches re-realized physical paths for links whose default
	// realization crosses a failed conduit. A nil entry means the link
	// is physically down.
	repath map[topology.LinkID][]topology.Segment
	// loads counts links realized over each conduit (for congestion).
	loads map[topology.ConduitID]int
	// addrIndex maps addresses back to owning AS (including IXP LANs).
	addrIndex *netx.Trie[topology.ASN]
	ixpByLAN  *netx.Trie[topology.IXPID]
	// anycast services (see anycast.go).
	anycast []anycastService
}

// New builds a data plane with all conduits up. The seed drives all
// per-event randomness (jitter, response probabilities).
func New(t *topology.Topology, r *bgp.Router, seed int64) *Net {
	n := &Net{
		topo:        t,
		router:      r,
		seed:        uint64(seed),
		conduitDown: make(map[topology.ConduitID]bool),
		cutCables:   make(map[topology.CableID]bool),
		repath:      make(map[topology.LinkID][]topology.Segment),
		addrIndex:   &netx.Trie[topology.ASN]{},
		ixpByLAN:    &netx.Trie[topology.IXPID]{},
	}
	n.latMemo.Store(&latMemoT{})
	for _, asn := range t.ASNs() {
		for _, p := range t.ASes[asn].Prefixes {
			n.addrIndex.Insert(p, asn)
		}
	}
	for _, id := range t.IXPIDs() {
		n.ixpByLAN.Insert(t.IXPs[id].LAN, id)
	}
	n.recomputeLoads()
	return n
}

// Topology returns the underlying topology.
func (n *Net) Topology() *topology.Topology { return n.topo }

// Epoch returns the failure epoch: it increments on every state change
// that re-realized the network (cable cut/restore). Together with the
// router's Gen it keys any cache derived from data-plane state.
func (n *Net) Epoch() uint64 { return n.epoch.Load() }

// Router returns the underlying routing engine.
func (n *Net) Router() *bgp.Router { return n.router }

// OwnerOf maps an address to the AS owning its covering prefix.
func (n *Net) OwnerOf(a netx.Addr) (topology.ASN, bool) { return n.addrIndex.Lookup(a) }

// IXPOf maps an address to the IXP whose peering LAN contains it.
func (n *Net) IXPOf(a netx.Addr) (topology.IXPID, bool) { return n.ixpByLAN.Lookup(a) }

// HostAddr returns the i-th host address inside an AS (i small).
func (n *Net) HostAddr(asn topology.ASN, i int) netx.Addr {
	as := n.topo.ASes[asn]
	if as == nil || len(as.Prefixes) == 0 {
		return 0
	}
	p := as.Prefixes[i%len(as.Prefixes)]
	return p.Nth(uint64(256 + i))
}

// RouterAddr returns the address of one of an AS's backbone routers.
func (n *Net) RouterAddr(asn topology.ASN, i int) netx.Addr {
	as := n.topo.ASes[asn]
	if as == nil || len(as.Prefixes) == 0 {
		return 0
	}
	return as.Prefixes[0].Nth(uint64(1 + i%64))
}

// --- Failures ---------------------------------------------------------

// SetCablesCut cuts (or restores) a whole batch of cables with a single
// re-realization — one routing invalidation instead of one per cable. It
// is the only writer of the cut set. Cables already in the requested
// state are skipped; if nothing changes the call is a no-op and every
// cache survives.
func (n *Net) SetCablesCut(ids []topology.CableID, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	changed := false
	for _, id := range ids {
		if n.cutCables[id] == cut {
			continue
		}
		changed = true
		if cut {
			n.cutCables[id] = true
		} else {
			delete(n.cutCables, id)
		}
	}
	if !changed {
		return
	}
	n.syncConduitsLocked()
	n.reRealize()
}

// syncConduitsLocked rederives the failed-conduit set from the cut
// cables. Must be called with n.mu held for writing.
func (n *Net) syncConduitsLocked() {
	down := make(map[topology.ConduitID]bool)
	for i := range n.topo.Conduits {
		c := &n.topo.Conduits[i]
		if n.cutCables[c.Cable] {
			down[c.ID] = true
		}
	}
	n.conduitDown = down
}

// CutCables returns the currently-cut cables, sorted.
func (n *Net) CutCables() []topology.CableID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]topology.CableID, 0, len(n.cutCables))
	for id := range n.cutCables {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reRealize recomputes effective physical paths for all links after a
// failure change, and feeds physically-dead links to the BGP layer.
// Must be called with n.mu held for writing.
func (n *Net) reRealize() {
	n.repath = make(map[topology.LinkID][]topology.Segment)
	up := func(id topology.ConduitID) bool { return !n.conduitDown[id] }
	realizer := topology.NewRealizer(n.topo, up)
	var dead []topology.LinkID
	for i := range n.topo.Links {
		l := &n.topo.Links[i]
		uses := false
		for _, s := range l.Path {
			if n.conduitDown[s.Conduit] {
				uses = true
				break
			}
		}
		if !uses {
			continue // default path intact
		}
		segs, ok := topology.RealizeLink(realizer, n.topo, l)
		if !ok {
			n.repath[l.ID] = nil
			dead = append(dead, l.ID)
			continue
		}
		n.repath[l.ID] = segs
	}
	// Apply to routing: exactly the physically-dead links are down. The
	// whole-set form is a no-op on the router (cached trees survive)
	// when the dead set did not change.
	n.router.SetDownLinks(dead)
	n.recomputeLoads()
	n.epoch.Add(1)
	n.latMemo.Store(&latMemoT{})
}

// effectivePath returns the link's current physical realization and
// whether the link is up. Must be called with n.mu held (read or write).
func (n *Net) effectivePath(l *topology.Link) ([]topology.Segment, bool) {
	if segs, ok := n.repath[l.ID]; ok {
		return segs, segs != nil
	}
	return l.Path, true
}

// recomputeLoads counts how many links ride each conduit. Must be called
// with n.mu held for writing.
func (n *Net) recomputeLoads() {
	loads := make(map[topology.ConduitID]int)
	for i := range n.topo.Links {
		l := &n.topo.Links[i]
		segs, okUp := n.effectivePath(l)
		if !okUp {
			continue
		}
		for _, s := range segs {
			loads[s.Conduit]++
		}
	}
	n.loads = loads
}

// conduitPenalty returns added one-way delay (ms) and loss probability
// for one conduit under current load. A conduit carrying more links than
// its capacity is congested — the "over-subscribed backup" effect the
// paper describes during cable cuts.
func (n *Net) conduitPenalty(id topology.ConduitID) (delayMs, loss float64) {
	c := n.topo.ConduitByID(id)
	if c == nil || c.Capacity <= 0 {
		return 0, 0
	}
	ratio := float64(n.loads[id]) / c.Capacity
	if ratio <= 1 {
		return 0, 0
	}
	over := ratio - 1
	delayMs = 40 * over
	if delayMs > 200 {
		delayMs = 200
	}
	loss = 0.5 * over
	if loss > 0.9 {
		loss = 0.9
	}
	return delayMs, loss
}

// CablesOnLink returns the cables carrying the link's *current*
// realization (ground truth for cable-inference experiments).
func (n *Net) CablesOnLink(id topology.LinkID) []topology.CableID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l := n.topo.Link(id)
	segs, up := n.effectivePath(l)
	if !up {
		return nil
	}
	seen := map[topology.CableID]bool{}
	var out []topology.CableID
	for _, s := range segs {
		c := n.topo.ConduitByID(s.Conduit)
		if c != nil && c.IsSubsea() && !seen[c.Cable] {
			seen[c.Cable] = true
			out = append(out, c.Cable)
		}
	}
	return out
}

// linkLatency returns the one-way propagation+processing delay and the
// compound congestion loss for a link under current conditions. Results
// are memoized per failure epoch (the inputs — repath, loads,
// conduitDown — only change inside reRealize, which swaps the memo).
// Must be called with n.mu held (read or write).
func (n *Net) linkLatency(l *topology.Link) (ms float64, loss float64, up bool) {
	memo := n.latMemo.Load()
	if v, ok := memo.m.Load(l.ID); ok {
		e := v.(latVal)
		return e.ms, e.loss, e.up
	}
	ms, loss, up = n.linkLatencyUncached(l)
	memo.m.Store(l.ID, latVal{ms: ms, loss: loss, up: up})
	return ms, loss, up
}

func (n *Net) linkLatencyUncached(l *topology.Link) (ms float64, loss float64, up bool) {
	segs, okUp := n.effectivePath(l)
	if !okUp {
		return 0, 1, false
	}
	var km float64
	if len(segs) == 0 {
		switch {
		case l.Via != 0:
			km = 20 // both ports at the exchange: metro cross-connect
		default:
			a, b := n.topo.Country(l.A), n.topo.Country(l.B)
			if a != nil && b != nil && a.ISO2 != b.ISO2 {
				km = geo.DistanceKm(a.Hub, b.Hub) * 1.4
			} else {
				km = 150 // domestic metro haul
			}
		}
	}
	pass := 1.0
	for _, s := range segs {
		km += s.KM
		d, p := n.conduitPenalty(s.Conduit)
		ms += d
		pass *= 1 - p
	}
	ms += geo.PropagationDelayMs(km)
	return ms, 1 - pass, true
}
