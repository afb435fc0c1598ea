package topology

import (
	"testing"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netx"
)

// testTopo caches the reference world across tests in this package.
var testTopo = Generate(DefaultParams())

func TestDeterminism(t *testing.T) {
	a := Generate(Params{Seed: 7, Year: 2025})
	b := Generate(Params{Seed: 7, Year: 2025})
	if len(a.ASNs()) != len(b.ASNs()) || len(a.Links) != len(b.Links) {
		t.Fatalf("same seed, different sizes: %d/%d ASes, %d/%d links",
			len(a.ASNs()), len(b.ASNs()), len(a.Links), len(b.Links))
	}
	for i, asn := range a.ASNs() {
		if b.ASNs()[i] != asn {
			t.Fatalf("ASN lists diverge at %d", i)
		}
	}
	for i := range a.Links {
		la, lb := a.Links[i], b.Links[i]
		if la.A != lb.A || la.B != lb.B || la.Kind != lb.Kind || la.Via != lb.Via {
			t.Fatalf("links diverge at %d: %+v vs %+v", i, la, lb)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := Generate(Params{Seed: 1, Year: 2025})
	b := Generate(Params{Seed: 2, Year: 2025})
	if len(a.Links) == len(b.Links) {
		// Same size is possible, but then memberships should differ.
		same := true
		for _, id := range a.IXPIDs() {
			if len(a.IXPs[id].Members) != len(b.IXPs[id].Members) {
				same = false
				break
			}
		}
		if same {
			t.Log("warning: seeds 1 and 2 produced suspiciously similar worlds")
		}
	}
}

func TestAfricanIXPCalibration(t *testing.T) {
	count := func(topo *Topology) int {
		n := 0
		for _, id := range topo.IXPIDs() {
			if geo.MustLookup(topo.IXPs[id].Country).Region.IsAfrica() {
				n++
			}
		}
		return n
	}
	if got := count(testTopo); got != 77 {
		t.Errorf("2025 African IXPs = %d, want 77", got)
	}
	old := Generate(Params{Seed: 42, Year: 2015})
	if got := count(old); got != 11 {
		t.Errorf("2015 African IXPs = %d, want 11", got)
	}
}

func TestCableGrowthCalibration(t *testing.T) {
	countAfrican := func(topo *Topology) int {
		n := 0
		for _, id := range topo.CableIDs() {
			for _, l := range topo.Cables[id].Landings {
				if geo.MustLookup(l.Country).Region.IsAfrica() {
					n++
					break
				}
			}
		}
		return n
	}
	now := countAfrican(testTopo)
	old := countAfrican(Generate(Params{Seed: 42, Year: 2015}))
	growth := float64(now-old) / float64(old)
	if growth < 0.35 || growth > 0.60 {
		t.Errorf("African cable growth = %.0f%%, want ~45%%", growth*100)
	}
}

func TestNoAfricanTier1(t *testing.T) {
	for _, asn := range testTopo.ASNs() {
		as := testTopo.ASes[asn]
		if as.Tier == Tier1 && as.Region.IsAfrica() {
			t.Errorf("AS%d is an African Tier-1; the paper's premise forbids this", asn)
		}
	}
}

func TestAfricanTier2Scarcity(t *testing.T) {
	n := 0
	for _, asn := range testTopo.ASNs() {
		as := testTopo.ASes[asn]
		if as.Tier == Tier2 && as.Region.IsAfrica() {
			n++
		}
	}
	if n == 0 || n > 8 {
		t.Errorf("African Tier-2 count = %d, want a small positive number", n)
	}
}

func TestKigaliProbeASN(t *testing.T) {
	as := testTopo.ASes[36924]
	if as == nil {
		t.Fatal("AS36924 missing")
	}
	if as.Country != "RW" {
		t.Fatalf("AS36924 in %s, want RW", as.Country)
	}
	providers := 0
	continental := 0
	for _, lid := range testTopo.LinksOf(36924) {
		l := testTopo.Link(lid)
		if l.Kind == CustomerProvider && l.A == 36924 {
			providers++
			if testTopo.RegionOf(l.B).IsAfrica() {
				continental++
			}
		}
	}
	if providers < 2 || continental < 1 {
		t.Fatalf("AS36924 has %d providers (%d continental); the pilot needs broad upstreams", providers, continental)
	}
}

func TestPrefixesDisjoint(t *testing.T) {
	var all []netx.Prefix
	for _, asn := range testTopo.ASNs() {
		all = append(all, testTopo.ASes[asn].Prefixes...)
	}
	var trie netx.Trie[int]
	for i, p := range all {
		if prev, ok := trie.LookupPrefix(p); ok {
			t.Fatalf("prefix %v allocated twice (first at %d, again at %d)", p, prev, i)
		}
		trie.Insert(p, i)
	}
	// No AS prefix may overlap another's (all are /20 or /24 from
	// disjoint pools).
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].Overlaps(all[j]) {
				t.Fatalf("overlapping prefixes %v and %v", all[i], all[j])
			}
		}
	}
}

func TestIXPLANsInsidePool(t *testing.T) {
	pool := netx.MustParsePrefix(ixpLANPool)
	seen := map[netx.Addr]bool{}
	for _, id := range testTopo.IXPIDs() {
		lan := testTopo.IXPs[id].LAN
		if !pool.Contains(lan.Base()) {
			t.Errorf("IXP %d LAN %v outside pool", id, lan)
		}
		if lan.Bits() != 24 {
			t.Errorf("IXP %d LAN %v is not a /24", id, lan)
		}
		if seen[lan.Base()] {
			t.Errorf("duplicate LAN %v", lan)
		}
		seen[lan.Base()] = true
	}
}

func TestEveryIXPHasMembers(t *testing.T) {
	for _, id := range testTopo.IXPIDs() {
		if len(testTopo.IXPs[id].Members) == 0 {
			t.Errorf("IXP %s has no members", testTopo.IXPs[id].Name)
		}
	}
}

func TestLinkInvariants(t *testing.T) {
	seen := map[[2]ASN]bool{}
	for i := range testTopo.Links {
		l := &testTopo.Links[i]
		if l.A == l.B {
			t.Fatalf("self link at %d", i)
		}
		key := [2]ASN{l.A, l.B}
		if l.B < l.A {
			key = [2]ASN{l.B, l.A}
		}
		if seen[key] {
			t.Fatalf("duplicate link %d-%d", l.A, l.B)
		}
		seen[key] = true
		if testTopo.ASes[l.A] == nil || testTopo.ASes[l.B] == nil {
			t.Fatalf("link %d references missing AS", i)
		}
		if l.Via != 0 && testTopo.IXPs[l.Via] == nil {
			t.Fatalf("link %d references missing IXP %d", i, l.Via)
		}
	}
}

func TestRealizationComplete(t *testing.T) {
	for i := range testTopo.Links {
		l := &testTopo.Links[i]
		ca := testTopo.ASes[l.A].Country
		cb := testTopo.ASes[l.B].Country
		if ca == cb || l.Via != 0 {
			continue
		}
		if len(l.Path) == 0 {
			t.Errorf("inter-country link %d (%s-%s) has no physical path", i, ca, cb)
		}
		// Path must be contiguous from ca to cb.
		at := ca
		for _, s := range l.Path {
			if s.FromCountry != at {
				t.Fatalf("link %d path discontinuous at %s", i, at)
			}
			at = s.ToCountry
		}
		if at != cb {
			t.Fatalf("link %d path ends at %s, want %s", i, at, cb)
		}
	}
}

func TestCapacityCoversSteadyState(t *testing.T) {
	loads := map[ConduitID]int{}
	for i := range testTopo.Links {
		for _, s := range testTopo.Links[i].Path {
			loads[s.Conduit]++
		}
	}
	for i := range testTopo.Conduits {
		c := &testTopo.Conduits[i]
		if float64(loads[c.ID]) > c.Capacity {
			t.Errorf("conduit %d (%s-%s) overloaded in steady state: %d > %.0f",
				c.ID, c.FromCountry, c.ToCountry, loads[c.ID], c.Capacity)
		}
	}
}

func TestCorridorsPopulated(t *testing.T) {
	corr := testTopo.Corridors()
	west := corr["west-africa-coastal"]
	if len(west) < 4 {
		t.Fatalf("west-africa-coastal has %d cables, want >= 4 (March 2024 needs them)", len(west))
	}
	names := map[string]bool{}
	for _, id := range west {
		names[testTopo.Cables[id].Name] = true
	}
	for _, want := range []string{"WACS", "MainOne", "SAT-3", "ACE"} {
		if !names[want] {
			t.Errorf("%s missing from west corridor", want)
		}
	}
}

func TestMobileClassificationShare(t *testing.T) {
	mobile, total := 0, 0
	for _, asn := range testTopo.ASNs() {
		as := testTopo.ASes[asn]
		if !as.Region.IsAfrica() || as.Type == ASIXPRouteServer {
			continue
		}
		total++
		if as.IsMobile() {
			mobile++
		}
	}
	share := float64(mobile) / float64(total)
	if share < 0.2 || share > 0.7 {
		t.Errorf("African mobile ASN share = %.2f, want mobile-heavy but not universal", share)
	}
}

func TestYearFilterMonotonic(t *testing.T) {
	prev := 0
	for year := 2015; year <= 2025; year++ {
		topo := Generate(Params{Seed: 42, Year: year})
		n := len(topo.ASNs())
		if n < prev {
			t.Fatalf("AS count shrank from %d to %d at year %d", prev, n, year)
		}
		prev = n
	}
}

func TestRealizePathFilter(t *testing.T) {
	// With everything up, NG reaches DE; with all subsea conduits down,
	// it cannot (Africa-Europe has no terrestrial path).
	if _, ok := NewRealizer(testTopo, nil).PathFor("NG", "DE", 0); !ok {
		t.Fatal("NG-DE should be reachable")
	}
	noSubsea := func(id ConduitID) bool {
		return !testTopo.ConduitByID(id).IsSubsea()
	}
	if _, ok := NewRealizer(testTopo, noSubsea).PathFor("NG", "DE", 0); ok {
		t.Fatal("NG-DE should need subsea conduits")
	}
	// Domestic trivially works.
	if segs, ok := NewRealizer(testTopo, nil).PathFor("NG", "NG", 0); !ok || len(segs) != 0 {
		t.Fatal("domestic realization should be empty and ok")
	}
}

// TestPathKMPositive checks every realized link path has a positive
// physical length: each segment is a conduit hop of positive km.
func TestPathKMPositive(t *testing.T) {
	realized := 0
	for i := range testTopo.Links {
		l := &testTopo.Links[i]
		var km float64
		for _, s := range l.Path {
			if s.KM <= 0 {
				t.Fatalf("link %d has a segment of non-positive length %v", i, s.KM)
			}
			km += s.KM
		}
		if len(l.Path) > 0 {
			realized++
			if km <= 0 {
				t.Fatalf("link %d has non-positive path length %v", i, km)
			}
		}
	}
	if realized == 0 {
		t.Fatal("no link has a realized path")
	}
}

func TestASTypeAndTierStrings(t *testing.T) {
	if ASMobileCarrier.String() != "mobile" || Tier1.String() != "tier1" {
		t.Fatal("string forms changed")
	}
	if ASType(99).String() == "" || RelKind(0).String() == "" {
		t.Fatal("unknown values must stringify")
	}
}
