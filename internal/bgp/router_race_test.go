package bgp

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/topology"
)

// raceTopo builds a mid-sized topology for the stress tests.
func raceTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.Generate(topology.Params{Seed: 7, Year: 2025})
}

// usesLink reports whether any entry of the tree forwards over link id.
func usesLink(tr *Tree, id topology.LinkID) bool {
	for _, e := range tr.next {
		if e.link == id {
			return true
		}
	}
	return false
}

// TestTreeConcurrentStress hammers Tree/Path/Reachable from many reader
// goroutines while a flipper goroutine takes links down and up. After
// each flip the flipper immediately asks for fresh trees and asserts the
// invalidation took effect: a tree fetched after SetDownLinks({id})
// returns must never forward over id. Run under -race this also proves
// the locking protocol has no data races.
func TestTreeConcurrentStress(t *testing.T) {
	topo := raceTopo(t)
	r := New(topo)
	asns := topo.ASNs()
	if len(asns) < 10 || len(topo.Links) < 10 {
		t.Fatalf("topology too small: %d ASes, %d links", len(asns), len(topo.Links))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Readers: mixed Tree/Path/Reachable traffic over a rotating window
	// of destinations so slots are shared and re-created constantly.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				dst := asns[(g*31+i)%len(asns)]
				src := asns[(g*17+i*7)%len(asns)]
				switch i % 3 {
				case 0:
					if tr := r.Tree(dst); tr.Dest != dst {
						t.Errorf("tree for %d has Dest %d", dst, tr.Dest)
						return
					}
				case 1:
					if p, ok := r.Path(src, dst); ok && p.Hops[0].ASN != src {
						t.Errorf("path from %d starts at %d", src, p.Hops[0].ASN)
						return
					}
				default:
					r.Tree(dst).Reachable(src)
				}
			}
		}(g)
	}

	// Flipper: serially flips links and checks freshness after each flip.
	const flips = 200
	for i := 0; i < flips; i++ {
		id := topo.Links[(i*13)%len(topo.Links)].ID
		dst := asns[(i*41)%len(asns)]

		r.SetDownLinks([]topology.LinkID{id})
		if tr := r.Tree(dst); usesLink(tr, id) {
			t.Fatalf("flip %d: tree for %d forwards over down link %d", i, dst, id)
		}
		// Repeating the current set must keep the cache (and the
		// generation): a second cut is a no-op.
		gen := r.Gen()
		r.SetDownLinks([]topology.LinkID{id})
		if r.Gen() != gen {
			t.Fatalf("flip %d: repeated cut bumped generation", i)
		}

		r.SetDownLinks(nil)
		if r.Gen() == gen {
			t.Fatalf("flip %d: restore did not bump generation", i)
		}
		gen = r.Gen()
		r.SetDownLinks(nil)
		if r.Gen() != gen {
			t.Fatalf("flip %d: no-op restore bumped generation", i)
		}
	}

	stop.Store(true)
	wg.Wait()
}

// TestPrecomputeWarmsCache warms the tree cache from a worker pool, the
// way a sweep precomputes its destinations, and checks every requested
// tree (duplicates included) is computed and that warmed lookups return
// the identical cached object.
func TestPrecomputeWarmsCache(t *testing.T) {
	topo := raceTopo(t)
	r := New(topo)
	asns := topo.ASNs()
	dests := make([]topology.ASN, 0, 64)
	for i := 0; i < 64; i++ {
		dests = append(dests, asns[i%len(asns)]) // includes duplicates
	}
	par.ForEach(8, len(dests), func(i int) { r.Tree(dests[i]) })
	for _, d := range dests {
		first := r.Tree(d)
		if second := r.Tree(d); second != first {
			t.Fatalf("dest %d: Tree not served from cache after warming", d)
		}
	}
}

// TestSetDownLinksTransactional checks the whole-set API: equal sets are
// no-ops, changed sets invalidate, and the resulting down set is exact —
// a fresh tree forwards over every link that is up and over none that
// is down.
func TestSetDownLinksTransactional(t *testing.T) {
	topo := raceTopo(t)
	r := New(topo)
	a, b := topo.Links[0], topo.Links[1]
	// up reports whether a fresh tree toward l's far end forwards over l.
	up := func(l topology.Link) bool { return usesLink(r.Tree(l.B), l.ID) }
	if !up(a) || !up(b) {
		t.Fatal("links 0 and 1 carry no route with every link up")
	}

	r.SetDownLinks([]topology.LinkID{a.ID, b.ID})
	if up(a) || up(b) {
		t.Fatalf("a tree forwards over a down link of {%d,%d}", a.ID, b.ID)
	}
	gen := r.Gen()
	r.SetDownLinks([]topology.LinkID{b.ID, a.ID}) // same set, different order
	if r.Gen() != gen {
		t.Fatal("equal down set bumped generation")
	}
	r.SetDownLinks([]topology.LinkID{a.ID})
	if r.Gen() == gen {
		t.Fatal("shrinking down set did not invalidate")
	}
	if up(a) || !up(b) {
		t.Fatalf("down set is not exactly {%d}", a.ID)
	}
	r.SetDownLinks(nil)
	if !up(a) || !up(b) {
		t.Fatal("down set is not empty after SetDownLinks(nil)")
	}
}
