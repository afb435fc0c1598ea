package ixp

import (
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/topology"
)

var (
	testTopo = topology.Generate(topology.DefaultParams())
	testNet  = netsim.New(testTopo, bgp.New(testTopo), 42)
	testDir  = registry.IXPDirectory(testTopo)
)

func TestDetectStrongRule(t *testing.T) {
	d := NewDetector(testDir)
	// Synthetic traceroute with a hop inside a known LAN.
	rec := testDir[0]
	tr := netsim.Traceroute{Hops: []netsim.TraceHop{
		{TTL: 1, Addr: netx.MustParseAddr("80.0.0.1")},
		{TTL: 2, Addr: rec.LAN.Nth(5)},
		{TTL: 3, Addr: netx.MustParseAddr("80.0.1.1")},
	}}
	crossings := d.Detect(tr, nil)
	if len(crossings) != 1 || crossings[0].IXP != rec.ID || !crossings[0].Strong {
		t.Fatalf("crossings = %+v", crossings)
	}
	if crossings[0].Name != rec.Name || crossings[0].HopTTL != 2 {
		t.Fatalf("metadata wrong: %+v", crossings[0])
	}
}

func TestDetectMembershipHeuristic(t *testing.T) {
	// Two members of exactly one shared fabric appear adjacently with no
	// LAN hop: the weak rule should fire.
	var rec registry.IXPRecord
	var a, b topology.ASN
	for _, r := range testDir {
		d := NewDetector(testDir)
	members:
		for i, m1 := range r.Members {
			for _, m2 := range r.Members[i+1:] {
				if len(sharedOf(d, m1, m2)) == 1 {
					rec, a, b = r, m1, m2
					break members
				}
			}
		}
		if a != 0 {
			break
		}
	}
	if a == 0 {
		t.Skip("no pair sharing exactly one fabric")
	}
	d := NewDetector(testDir)
	addrA := testTopo.ASes[a].Prefixes[0].Nth(1)
	addrB := testTopo.ASes[b].Prefixes[0].Nth(1)
	origin := func(x netx.Addr) (topology.ASN, bool) {
		switch x {
		case addrA:
			return a, true
		case addrB:
			return b, true
		}
		return 0, false
	}
	tr := netsim.Traceroute{Hops: []netsim.TraceHop{
		{TTL: 1, Addr: addrA},
		{TTL: 2, Addr: addrB},
	}}
	crossings := d.Detect(tr, origin)
	if len(crossings) != 1 || crossings[0].IXP != rec.ID || crossings[0].Strong {
		t.Fatalf("weak rule crossings = %+v", crossings)
	}
}

func sharedOf(d *Detector, a, b topology.ASN) []topology.IXPID {
	return d.sharedIXPs(a, b)
}

func TestDetectSilentTrace(t *testing.T) {
	d := NewDetector(testDir)
	tr := netsim.Traceroute{Hops: []netsim.TraceHop{{TTL: 1}, {TTL: 2}}}
	if got := d.Detect(tr, nil); len(got) != 0 {
		t.Fatalf("silent trace produced crossings: %+v", got)
	}
}

// TestMembershipsOf checks the detector's membership index: the
// exchanges an AS shares with itself are the ones it belongs to.
func TestMembershipsOf(t *testing.T) {
	d := NewDetector(testDir)
	rec := testDir[0]
	if len(rec.Members) == 0 {
		t.Fatal("fixture fabric empty")
	}
	m := rec.Members[0]
	found := false
	for _, id := range d.sharedIXPs(m, m) {
		if id == rec.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("AS%d membership of %s not reported", m, rec.Name)
	}
}

func TestGreedySetCoverComplete(t *testing.T) {
	dir := registry.AfricanIXPs(testTopo)
	res := GreedySetCover(dir)
	if res.Universe != 77 {
		t.Fatalf("universe = %d", res.Universe)
	}
	if len(res.Uncovered) != 0 {
		t.Fatalf("uncovered fabrics: %v", res.Uncovered)
	}
	// Every fabric's covering ASN must actually be a member.
	members := map[topology.IXPID]map[topology.ASN]bool{}
	for _, rec := range dir {
		m := map[topology.ASN]bool{}
		for _, a := range rec.Members {
			m[a] = true
		}
		members[rec.ID] = m
	}
	for id, by := range res.CoveredBy {
		if !members[id][by] {
			t.Fatalf("fabric %d covered by non-member AS%d", id, by)
		}
	}
	// CoverageOf agrees.
	if got := CoverageOf(dir, res.Chosen); got != 77 {
		t.Fatalf("CoverageOf(chosen) = %d", got)
	}
	// Paper band: tens of ASNs, not a handful, not hundreds.
	if len(res.Chosen) < 15 || len(res.Chosen) > 50 {
		t.Fatalf("cover size %d outside the plausible band (paper: 34)", len(res.Chosen))
	}
}

func TestGreedySetCoverDeterministic(t *testing.T) {
	dir := registry.AfricanIXPs(testTopo)
	a := GreedySetCover(dir)
	b := GreedySetCover(dir)
	if len(a.Chosen) != len(b.Chosen) {
		t.Fatal("cover size not deterministic")
	}
	for i := range a.Chosen {
		if a.Chosen[i] != b.Chosen[i] {
			t.Fatal("cover order not deterministic")
		}
	}
}

func TestGreedySetCoverGreedyProperty(t *testing.T) {
	dir := registry.AfricanIXPs(testTopo)
	res := GreedySetCover(dir)
	// The first pick covers at least as many fabrics as any single ASN.
	memberships := map[topology.ASN]int{}
	for _, rec := range dir {
		for _, a := range rec.Members {
			memberships[a]++
		}
	}
	best := 0
	for _, n := range memberships {
		if n > best {
			best = n
		}
	}
	firstGain := 0
	for _, by := range res.CoveredBy {
		if by == res.Chosen[0] {
			firstGain++
		}
	}
	if firstGain != best {
		t.Fatalf("first greedy pick covers %d, best possible %d", firstGain, best)
	}
}

func TestCoverageOfEmpty(t *testing.T) {
	dir := registry.AfricanIXPs(testTopo)
	if CoverageOf(dir, nil) != 0 {
		t.Fatal("empty vantage set should cover nothing")
	}
}

func TestDetectOnRealTraceroute(t *testing.T) {
	// End-to-end: cross a known fabric and detect it from the wire data.
	d := NewDetector(testDir)
	for i := range testTopo.Links {
		l := &testTopo.Links[i]
		if l.Via == 0 {
			continue
		}
		tr := testNet.Traceroute(l.A, testNet.RouterAddr(l.B, 0))
		for _, cr := range d.Detect(tr, nil) {
			if cr.Strong && cr.IXP == l.Via {
				return // success
			}
		}
	}
	t.Fatal("no strong detection on any fabric link")
}
