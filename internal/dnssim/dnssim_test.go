package dnssim

import (
	"math"
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/topology"
)

var (
	testTopo = topology.Generate(topology.DefaultParams())
	testNet  = netsim.New(testTopo, bgp.New(testTopo), 42)
	testDNS  = New(testNet, 42)
)

func TestResolverForDeterministic(t *testing.T) {
	other := New(testNet, 42)
	for _, asn := range testTopo.ASNs()[:100] {
		if testDNS.AssignmentFor(asn) != other.AssignmentFor(asn) {
			t.Fatalf("resolver assignment differs for AS%d", asn)
		}
	}
}

func TestResolverMixMatchesModel(t *testing.T) {
	for _, region := range geo.AfricanRegions() {
		us := testDNS.MeasureResolverUse(region)
		if us.Samples < 10 {
			continue
		}
		mix := mixes[region]
		if math.Abs(us.SameCountry-mix.local) > 0.20 {
			t.Errorf("%s same-country %.2f far from model %.2f", region, us.SameCountry, mix.local)
		}
		sum := us.SameCountry + us.OtherCountry + us.Cloud
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s shares sum to %.3f", region, sum)
		}
	}
}

func TestSouthernMostLocal(t *testing.T) {
	south := testDNS.MeasureResolverUse(geo.AfricaSouthern)
	west := testDNS.MeasureResolverUse(geo.AfricaWestern)
	if south.SameCountry <= west.SameCountry {
		t.Fatalf("Southern (%.2f) should use local resolvers more than Western (%.2f)",
			south.SameCountry, west.SameCountry)
	}
}

func TestResolveBaselineSucceeds(t *testing.T) {
	ok, total := 0, 0
	for _, c := range geo.AfricanCountries()[:20] {
		for _, asn := range testTopo.ASesIn(c.ISO2) {
			as := testTopo.ASes[asn]
			if as.Type != topology.ASMobileCarrier && as.Type != topology.ASFixedISP {
				continue
			}
			total++
			res := testDNS.Resolve(asn, "site0."+c.ISO2, c.ISO2)
			if res.OK {
				ok++
				if res.LatencyMs <= 0 {
					t.Fatalf("zero latency on success: %+v", res)
				}
			}
			break
		}
	}
	if total == 0 || float64(ok)/float64(total) < 0.95 {
		t.Fatalf("baseline resolution success %d/%d; should be nearly universal", ok, total)
	}
}

func TestResolveWithPolicyForcesLocal(t *testing.T) {
	for _, asn := range testTopo.ASesIn("NG") {
		as := testTopo.ASes[asn]
		if as.Type != topology.ASMobileCarrier {
			continue
		}
		res := testDNS.ResolveWithPolicy(asn, "site1.NG", "NG", true, false)
		if !res.OK {
			t.Fatalf("forced-local resolution failed: %+v", res)
		}
		if res.Resolver.Kind != ResolverLocalISP || res.Resolver.Country != "NG" {
			t.Fatalf("policy did not force a local resolver: %+v", res.Resolver)
		}
		return
	}
	t.Fatal("no Nigerian mobile carrier")
}

func TestAnycastPrefersNearbySite(t *testing.T) {
	// A South African client must be served with in-country latency by a
	// ZA-region operator — either from the ZA anycast site or straight
	// off the operator's exchange off-net. (The site AS may carry the
	// operator's home-country label; what matters is the latency.)
	var za topology.ASN
	for _, a := range testTopo.ASesIn("ZA") {
		if testTopo.ASes[a].Type == topology.ASFixedISP {
			za = a
			break
		}
	}
	var withZA topology.ASN
	for _, cn := range testDNS.cloudASNs {
		if hasZARegion(testTopo.ASes[cn].Name) {
			withZA = cn
			break
		}
	}
	if withZA == 0 {
		t.Fatal("fixture operator missing")
	}
	site, ok := testDNS.AnycastSite(za, withZA)
	if !ok {
		t.Fatal("anycast unreachable")
	}
	rtt, ok := testNet.RTTBetween(za, site)
	if !ok || rtt > 40 {
		t.Fatalf("ZA client served at %.1f ms; a ZA-region operator should be local (<40 ms)", rtt)
	}
}

func TestAuthorityPlacementDeterministic(t *testing.T) {
	a := testDNS.Authority("site3.KE", "KE")
	b := testDNS.Authority("site3.KE", "KE")
	if a != b {
		t.Fatal("authoritative placement not deterministic")
	}
	if a.ASN == 0 {
		t.Fatal("no placement")
	}
}

func TestAuthorityLocalShare(t *testing.T) {
	local, total := 0, 0
	for i := 0; i < 60; i++ {
		loc := testDNS.Authority(domainName("ZA", i), "ZA")
		total++
		if loc.Country == "ZA" {
			local++
		}
	}
	share := float64(local) / float64(total)
	want := mixes[geo.AfricaSouthern].authLocal
	if math.Abs(share-want) > 0.25 {
		t.Fatalf("ZA auth-local share %.2f far from model %.2f", share, want)
	}
}

func domainName(cc string, i int) string {
	return "site" + string(rune('0'+i%10)) + string(rune('a'+i/10)) + "." + cc
}

func TestResolutionFailsWhenIsolated(t *testing.T) {
	// Cut every subsea cable: a client whose resolver or authoritative
	// sits overseas must fail.
	defer func() { testNet.SetCablesCut(testNet.CutCables(), false) }()
	testNet.SetCablesCut(testTopo.CableIDs(), true)
	failures := 0
	attempts := 0
	for _, c := range []string{"NG", "GH", "CI", "SN", "CM"} {
		for _, asn := range testTopo.ASesIn(c) {
			as := testTopo.ASes[asn]
			if as.Type != topology.ASMobileCarrier && as.Type != topology.ASFixedISP {
				continue
			}
			attempts++
			if res := testDNS.Resolve(asn, "site2."+c, c); !res.OK {
				failures++
				if res.FailReason == "" {
					t.Fatal("failure without a reason")
				}
			}
		}
	}
	if attempts == 0 {
		t.Fatal("no attempts")
	}
	if failures == 0 {
		t.Fatal("total cable isolation should break some resolutions")
	}
}

func TestIsClientNetwork(t *testing.T) {
	if !isClientNetwork(&topology.AS{Type: topology.ASMobileCarrier}) {
		t.Fatal("mobile is a client network")
	}
	if isClientNetwork(&topology.AS{Type: topology.ASTransit}) {
		t.Fatal("transit is not a client network")
	}
	if isClientNetwork(&topology.AS{Type: topology.ASIXPRouteServer}) {
		t.Fatal("route server is not a client network")
	}
}

func TestResolverKindStrings(t *testing.T) {
	if ResolverLocalISP.String() != "same-country" ||
		ResolverOtherCountry.String() != "other-country" ||
		ResolverCloud.String() != "cloud" {
		t.Fatal("kind strings changed")
	}
}
