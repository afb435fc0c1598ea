package bgp

import (
	"testing"

	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/topology"
)

// mkAS builds a minimal AS for hand-made graphs.
func mkAS(asn topology.ASN, tier topology.Tier) *topology.AS {
	return &topology.AS{
		ASN: asn, Name: "test", Country: "DE", Tier: tier,
		Type:     topology.ASTransit,
		Prefixes: []netx.Prefix{netx.MakePrefix(netx.Addr(uint32(asn))<<16, 20)},
	}
}

// c2p makes a customer(a)->provider(b) link; p2p a peering.
func c2p(a, b topology.ASN) topology.Link {
	return topology.Link{A: a, B: b, Kind: topology.CustomerProvider}
}
func p2p(a, b topology.ASN) topology.Link {
	return topology.Link{A: a, B: b, Kind: topology.PeerPeer}
}

// The canonical Gao-Rexford example:
//
//	      1 ---- 2        (tier-1 peering)
//	     /  \     \
//	   10    11    12     (customers of the tier-1s)
//	  /  \         |
//	100  101      120     (stubs)
//
// plus a peering between 10 and 11.
func gaoRexfordWorld() *topology.Topology {
	ases := []*topology.AS{
		mkAS(1, topology.Tier1), mkAS(2, topology.Tier1),
		mkAS(10, topology.Tier2), mkAS(11, topology.Tier2), mkAS(12, topology.Tier2),
		mkAS(100, topology.TierStub), mkAS(101, topology.TierStub), mkAS(120, topology.TierStub),
	}
	links := []topology.Link{
		p2p(1, 2),
		c2p(10, 1), c2p(11, 1), c2p(12, 2),
		p2p(10, 11),
		c2p(100, 10), c2p(101, 10), c2p(120, 12),
	}
	return topology.NewManual(ases, links, nil)
}

func pathASNs(t *testing.T, r *Router, src, dst topology.ASN) []topology.ASN {
	t.Helper()
	p, ok := r.Path(src, dst)
	if !ok {
		t.Fatalf("no path %d->%d", src, dst)
	}
	return p.ASNs()
}

func eq(a, b []topology.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCustomerRoutePreferred(t *testing.T) {
	r := New(gaoRexfordWorld())
	// 10 reaches 100 directly through its customer, never via 1.
	if got := pathASNs(t, r, 10, 100); !eq(got, []topology.ASN{10, 100}) {
		t.Fatalf("10->100 = %v", got)
	}
	// 1 reaches 100 through its customer 10.
	if got := pathASNs(t, r, 1, 100); !eq(got, []topology.ASN{1, 10, 100}) {
		t.Fatalf("1->100 = %v", got)
	}
}

func TestPeerPreferredOverProvider(t *testing.T) {
	r := New(gaoRexfordWorld())
	// 11 -> 100: the peer route 11-10-100 beats the provider route
	// 11-1-10-100.
	if got := pathASNs(t, r, 11, 100); !eq(got, []topology.ASN{11, 10, 100}) {
		t.Fatalf("11->100 = %v", got)
	}
}

func TestProviderRouteWhenNeeded(t *testing.T) {
	r := New(gaoRexfordWorld())
	// 100 -> 120 must climb to the tier-1 mesh: 100-10-1-2-12-120.
	if got := pathASNs(t, r, 100, 120); !eq(got, []topology.ASN{100, 10, 1, 2, 12, 120}) {
		t.Fatalf("100->120 = %v", got)
	}
}

func TestValleyFreeNoPeerTransit(t *testing.T) {
	r := New(gaoRexfordWorld())
	// 101 -> 11 must NOT use the 10-11 peering as transit for 10's
	// customer... actually customer 101 may ride 10 then peer 11: that
	// IS valley-free (customer->peer). Verify it is used.
	if got := pathASNs(t, r, 101, 11); !eq(got, []topology.ASN{101, 10, 11}) {
		t.Fatalf("101->11 = %v", got)
	}
	// But 11 -> 12 must not ride the peering then climb (peer->provider
	// is a valley): expect 11-1-2-12.
	if got := pathASNs(t, r, 11, 12); !eq(got, []topology.ASN{11, 1, 2, 12}) {
		t.Fatalf("11->12 = %v", got)
	}
}

func TestSelfPath(t *testing.T) {
	r := New(gaoRexfordWorld())
	if got := pathASNs(t, r, 10, 10); !eq(got, []topology.ASN{10}) {
		t.Fatalf("self path = %v", got)
	}
}

func TestLinkFailureFailover(t *testing.T) {
	world := gaoRexfordWorld()
	r := New(world)
	// Find the 100->10 link.
	var linkID topology.LinkID
	found := false
	for i := range world.Links {
		l := &world.Links[i]
		if l.A == 100 && l.B == 10 {
			linkID = l.ID
			found = true
		}
	}
	if !found {
		t.Fatal("missing 100->10 link")
	}
	if !r.Tree(100).Reachable(1) {
		t.Fatal("100 unreachable before failure")
	}
	r.SetDownLinks([]topology.LinkID{linkID})
	if r.Tree(100).Reachable(1) {
		t.Fatal("100 should be cut off (single-homed)")
	}
	gen := r.Gen()
	r.SetDownLinks([]topology.LinkID{linkID})
	if r.Gen() != gen || r.Tree(100).Reachable(1) {
		t.Fatal("a second cut of the same link was not a no-op")
	}
	r.SetDownLinks(nil)
	if !r.Tree(100).Reachable(1) || !usesLink(r.Tree(100), linkID) {
		t.Fatal("100 should be back, over the restored link")
	}
}

// relOf classifies the relationship of the step a->b.
func relOf(topo *topology.Topology, l *topology.Link, from topology.ASN) string {
	if l.Kind == topology.PeerPeer {
		return "peer"
	}
	if l.A == from {
		return "up" // customer -> provider
	}
	return "down" // provider -> customer
}

// TestValleyFreeProperty checks every sampled path in the generated
// world follows the up*-peer?-down* pattern.
func TestValleyFreeProperty(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	r := New(topo)
	asns := topo.ASNs()
	checked := 0
	for i := 0; i < len(asns); i += 17 {
		for j := 5; j < len(asns); j += 31 {
			src, dst := asns[i], asns[j]
			if src == dst {
				continue
			}
			p, ok := r.Path(src, dst)
			if !ok {
				continue
			}
			phase := 0 // 0=climbing, 1=peered, 2=descending
			at := src
			for _, h := range p.Hops[1:] {
				l := topo.Link(h.Link)
				switch relOf(topo, l, at) {
				case "up":
					if phase != 0 {
						t.Fatalf("valley in path %v: up after phase %d", p.ASNs(), phase)
					}
				case "peer":
					if phase >= 1 {
						t.Fatalf("two peer steps in path %v", p.ASNs())
					}
					phase = 1
				case "down":
					phase = 2
				}
				at = h.ASN
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d paths checked", checked)
	}
}

func TestFullReachabilityGenerated(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	r := New(topo)
	asns := topo.ASNs()
	dst := asns[0]
	tree := r.Tree(dst)
	// Every AS except IXP route servers must reach every other.
	for _, src := range asns {
		as := topo.ASes[src]
		if as.Type == topology.ASIXPRouteServer || src == dst {
			continue
		}
		if !tree.Reachable(src) {
			t.Fatalf("AS%d cannot reach AS%d", src, dst)
		}
	}
}

func TestTreeCaching(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	r := New(topo)
	a := r.Tree(topo.ASNs()[10])
	b := r.Tree(topo.ASNs()[10])
	if a != b {
		t.Fatal("tree not cached")
	}
	r.SetDownLinks([]topology.LinkID{0})
	c := r.Tree(topo.ASNs()[10])
	if a == c {
		t.Fatal("cache not invalidated by failure")
	}
}

func TestRoutedTable(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	rt := BuildRoutedTable(topo)
	if rt.Len() == 0 {
		t.Fatal("empty routed table")
	}
	// Every non-IXP AS prefix resolves to its origin.
	for _, asn := range topo.ASNs() {
		as := topo.ASes[asn]
		if as.Type == topology.ASIXPRouteServer {
			// LANs must NOT be routed.
			for _, p := range as.Prefixes {
				if origin, ok := rt.Origin(p.Nth(5)); ok {
					t.Fatalf("IXP LAN %v routed (origin %d)", p, origin)
				}
			}
			continue
		}
		for _, p := range as.Prefixes {
			origin, ok := rt.Origin(p.Nth(100))
			if !ok || origin != asn {
				t.Fatalf("prefix %v origin = %d,%v want %d", p, origin, ok, asn)
			}
		}
	}
}

func TestSlash24Enumeration(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	rt := BuildRoutedTable(topo)
	s24s := rt.Slash24s()
	if len(s24s) == 0 {
		t.Fatal("no /24s")
	}
	seen := map[netx.Addr]bool{}
	for _, p := range s24s {
		if p.Bits() != 24 {
			t.Fatalf("non-/24 %v in enumeration", p)
		}
		if seen[p.Base()] {
			t.Fatalf("duplicate /24 %v", p)
		}
		seen[p.Base()] = true
		if _, ok := rt.Origin(p.Nth(1)); !ok {
			t.Fatalf("/24 %v not within routed space", p)
		}
	}
	// A /20 holds 16 /24s, so the enumeration must be bigger than the
	// prefix count.
	if len(s24s) < rt.Len()*8 {
		t.Fatalf("suspiciously few /24s: %d for %d prefixes", len(s24s), rt.Len())
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-length provider routes: the lower next-hop ASN wins.
	ases := []*topology.AS{
		mkAS(1, topology.Tier1), mkAS(2, topology.Tier1),
		mkAS(30, topology.TierStub), mkAS(40, topology.TierStub),
	}
	links := []topology.Link{
		p2p(1, 2),
		c2p(30, 1), c2p(30, 2),
		c2p(40, 1), c2p(40, 2),
	}
	r := New(topology.NewManual(ases, links, nil))
	got := pathASNs(t, r, 30, 40)
	if !eq(got, []topology.ASN{30, 1, 40}) {
		t.Fatalf("tie-break path = %v, want via AS1", got)
	}
}
