package content

import (
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/topology"
)

var (
	testTopo = topology.Generate(topology.DefaultParams())
	testNet  = netsim.New(testTopo, bgp.New(testTopo), 42)
	testWeb  = New(testNet, 42)
)

func TestCatalogCoversEveryCountry(t *testing.T) {
	cat := testWeb.Catalog()
	if len(cat.Countries()) != len(geo.Countries()) {
		t.Fatalf("catalog covers %d countries, want %d", len(cat.Countries()), len(geo.Countries()))
	}
	for _, c := range geo.Countries() {
		sites := cat.SitesFor(c.ISO2)
		if len(sites) < 20 {
			t.Errorf("%s has %d sites, want >= 20", c.ISO2, len(sites))
		}
		for _, s := range sites {
			if s.Country != c.ISO2 || !strings.HasSuffix(s.Domain, "."+c.ISO2) {
				t.Fatalf("bad site %+v for %s", s, c.ISO2)
			}
			if s.Provider == 0 {
				t.Fatalf("site %s has no provider", s.Domain)
			}
		}
	}
}

func TestCatalogDeterministic(t *testing.T) {
	other := New(testNet, 42)
	a := testWeb.Catalog().SitesFor("KE")
	b := other.Catalog().SitesFor("KE")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("catalog differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHostMixRoughlyRealized(t *testing.T) {
	counts := map[HostKind]int{}
	total := 0
	for _, c := range geo.AfricanCountries() {
		for _, s := range testWeb.Catalog().SitesFor(c.ISO2) {
			counts[s.Kind]++
			total++
		}
	}
	cdnShare := float64(counts[HostCDN]) / float64(total)
	if cdnShare < 0.35 || cdnShare > 0.7 {
		t.Fatalf("CDN share %.2f outside band", cdnShare)
	}
	if counts[HostLocal] == 0 || counts[HostEUHosting] == 0 {
		t.Fatal("hosting kinds not all represented")
	}
}

func TestFetchBaselineSucceeds(t *testing.T) {
	var client topology.ASN
	for _, a := range testTopo.ASesIn("KE") {
		if testTopo.ASes[a].Type == topology.ASMobileCarrier {
			client = a
			break
		}
	}
	ok := 0
	sites := testWeb.Catalog().SitesFor("KE")
	for _, s := range sites {
		r := testWeb.Fetch(client, s)
		if r.OK {
			ok++
			if r.RTTms <= 0 || r.ServedCountry == "" {
				t.Fatalf("malformed result %+v", r)
			}
		}
	}
	if float64(ok)/float64(len(sites)) < 0.95 {
		t.Fatalf("baseline fetch success %d/%d", ok, len(sites))
	}
}

func TestLocalityRegionalGradient(t *testing.T) {
	mean := func(region geo.Region) float64 {
		var sum float64
		n := 0
		for _, c := range geo.CountriesIn(region) {
			ls := testWeb.MeasureLocality(c.ISO2)
			if ls.Samples > 0 {
				sum += ls.Local
				n++
			}
		}
		return sum / float64(n)
	}
	south := mean(geo.AfricaSouthern)
	west := mean(geo.AfricaWestern)
	if south <= west {
		t.Fatalf("Southern locality (%.2f) should beat Western (%.2f) — the paper's maturity gradient", south, west)
	}
}

func TestOffnetServesLocally(t *testing.T) {
	// A South African client fetching CDN content should usually be
	// served from inside Africa (the off-net machinery).
	var client topology.ASN
	for _, a := range testTopo.ASesIn("ZA") {
		if testTopo.ASes[a].Type == topology.ASFixedISP {
			client = a
			break
		}
	}
	local, total := 0, 0
	for _, s := range testWeb.Catalog().SitesFor("ZA") {
		if s.Kind != HostCDN {
			continue
		}
		r := testWeb.Fetch(client, s)
		if !r.OK {
			continue
		}
		total++
		if r.LocalToAfrica {
			local++
		}
	}
	if total == 0 {
		t.Fatal("no CDN fetches")
	}
	if float64(local)/float64(total) < 0.5 {
		t.Fatalf("ZA CDN locality %d/%d; off-nets should dominate", local, total)
	}
}

func TestFetchDegradesUnderTotalCut(t *testing.T) {
	defer func() { testNet.SetCablesCut(testNet.CutCables(), false) }()
	var client topology.ASN
	for _, a := range testTopo.ASesIn("SL") { // single-corridor country
		if testTopo.ASes[a].Type == topology.ASMobileCarrier {
			client = a
			break
		}
	}
	okBefore := 0
	sites := testWeb.Catalog().SitesFor("SL")
	for _, s := range sites {
		if testWeb.Fetch(client, s).OK {
			okBefore++
		}
	}
	testNet.SetCablesCut(testTopo.Corridors()["west-africa-coastal"], true)
	okAfter := 0
	for _, s := range sites {
		if testWeb.Fetch(client, s).OK {
			okAfter++
		}
	}
	if okAfter >= okBefore {
		t.Fatalf("corridor cut did not hurt Sierra Leone: %d -> %d", okBefore, okAfter)
	}
}

func TestHostKindStrings(t *testing.T) {
	for _, k := range []HostKind{HostLocal, HostCloud, HostCDN, HostEUHosting} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestMeasureLocalityUnknownCountry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown country should panic via MustLookup")
		}
	}()
	testWeb.MeasureLocality("XX")
}
