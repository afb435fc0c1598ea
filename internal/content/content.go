// Package content models where web content for African users actually
// lives — the substrate behind the paper's Figure 2b (content locality,
// ISOC Pulse methodology): per-country top-site catalogs, sites hosted
// locally / in clouds / behind global CDNs, CDN request mapping to
// off-net caches at exchanges, and the fetch path a residential client
// experiences.
package content

import (
	"fmt"
	"sort"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
)

// HostKind is how a site is served.
type HostKind int

const (
	HostLocal     HostKind = iota // origin in the audience country
	HostCloud                     // hosted in a public cloud region
	HostCDN                       // fronted by a global CDN
	HostEUHosting                 // plain hosting in Europe
)

func (k HostKind) String() string {
	switch k {
	case HostLocal:
		return "local-origin"
	case HostCloud:
		return "cloud"
	case HostCDN:
		return "cdn"
	default:
		return "eu-hosting"
	}
}

// Site is one entry of a country's top-site list.
type Site struct {
	Domain   string
	Country  string // audience country
	Kind     HostKind
	Provider topology.ASN // serving organization (CDN/cloud/hosting AS)
}

// Catalog holds the per-country top-site lists (CrUX-style).
type Catalog struct {
	byCountry map[string][]Site
}

// SitesFor returns the top sites of one country.
func (c *Catalog) SitesFor(iso2 string) []Site { return c.byCountry[iso2] }

// Countries returns the catalog's countries, sorted.
func (c *Catalog) Countries() []string {
	out := make([]string, 0, len(c.byCountry))
	for k := range c.byCountry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// hostMix is the per-region site-hosting mix.
type hostMix struct {
	cdn, cloud, local float64 // remainder is EU hosting
}

var hostMixes = map[geo.Region]hostMix{
	geo.AfricaNorthern: {cdn: 0.50, cloud: 0.22, local: 0.09},
	geo.AfricaWestern:  {cdn: 0.52, cloud: 0.25, local: 0.05},
	geo.AfricaCentral:  {cdn: 0.48, cloud: 0.25, local: 0.04},
	geo.AfricaEastern:  {cdn: 0.52, cloud: 0.22, local: 0.10},
	geo.AfricaSouthern: {cdn: 0.55, cloud: 0.20, local: 0.22},
	geo.Europe:         {cdn: 0.55, cloud: 0.25, local: 0.18},
	geo.NorthAmerica:   {cdn: 0.58, cloud: 0.27, local: 0.14},
	geo.SouthAmerica:   {cdn: 0.55, cloud: 0.25, local: 0.12},
	geo.AsiaPacific:    {cdn: 0.55, cloud: 0.25, local: 0.14},
}

// System binds the content layer to a data plane.
type System struct {
	net     *netsim.Net
	topo    *topology.Topology
	seed    uint64
	catalog *Catalog

	cdns   []topology.ASN
	clouds []topology.ASN
}

// New builds the content layer and its site catalogs.
func New(n *netsim.Net, seed int64) *System {
	s := &System{
		net:  n,
		topo: n.Topology(),
		seed: uint64(seed),
	}
	for _, asn := range s.topo.ASNs() {
		as := s.topo.ASes[asn]
		switch as.Type {
		case topology.ASContent:
			s.cdns = append(s.cdns, asn)
		case topology.ASCloud:
			if as.Tier == topology.TierStub && len(as.OffNetAt) > 0 || isGlobalCloud(as.Name) {
				s.clouds = append(s.clouds, asn)
			}
		}
	}
	sort.Slice(s.cdns, func(i, j int) bool { return s.cdns[i] < s.cdns[j] })
	sort.Slice(s.clouds, func(i, j int) bool { return s.clouds[i] < s.clouds[j] })
	s.buildCatalog()
	return s
}

func isGlobalCloud(name string) bool {
	switch name {
	case "CloudOne", "CloudTwo", "CloudThree":
		return true
	}
	return false
}

// Catalog returns the generated site catalogs.
func (s *System) Catalog() *Catalog { return s.catalog }

func (s *System) f(vals ...uint64) float64 { return splitmix.Unit(splitmix.Fold(s.seed, vals...)) }

// siteCount returns the top-list size for a country (population-scaled
// stand-in for the paper's top-1000).
func siteCount(c *geo.Country) int {
	n := 20 + c.Population/2
	if n > 80 {
		n = 80
	}
	return n
}

func (s *System) buildCatalog() {
	s.catalog = &Catalog{byCountry: make(map[string][]Site)}
	for _, c := range geo.Countries() {
		mix := hostMixes[c.Region]
		n := siteCount(c)
		sites := make([]Site, 0, n)
		for i := 0; i < n; i++ {
			domain := fmt.Sprintf("site%d.%s", i, c.ISO2)
			h := splitmix.String(0, domain)
			st := Site{Domain: domain, Country: c.ISO2}
			draw := s.f(h, 0x71)
			switch {
			case draw < mix.cdn:
				st.Kind = HostCDN
				st.Provider = s.cdns[splitmix.Pick(splitmix.Mix(h^0x72), len(s.cdns))]
			case draw < mix.cdn+mix.cloud:
				st.Kind = HostCloud
				st.Provider = s.clouds[splitmix.Pick(splitmix.Mix(h^0x73), len(s.clouds))]
			case draw < mix.cdn+mix.cloud+mix.local:
				st.Kind = HostLocal
				st.Provider = s.localHost(c.ISO2, h)
				if st.Provider == 0 {
					st.Kind = HostEUHosting
					st.Provider = s.euHost(h)
				}
			default:
				st.Kind = HostEUHosting
				st.Provider = s.euHost(h)
			}
			sites = append(sites, st)
		}
		s.catalog.byCountry[c.ISO2] = sites
	}
}

// localHost picks an in-country hosting AS: a local cloud/education/
// enterprise network when the market has one, else the incumbent ISP —
// in small markets the incumbent's data center hosts what little local
// content exists. Returns 0 only for countries with no networks at all.
func (s *System) localHost(ctry string, salt uint64) topology.ASN {
	var pool, isps []topology.ASN
	for _, a := range s.topo.ASesIn(ctry) {
		as := s.topo.ASes[a]
		switch as.Type {
		case topology.ASCloud, topology.ASEducation, topology.ASEnterprise:
			pool = append(pool, a)
		case topology.ASFixedISP, topology.ASMobileCarrier:
			isps = append(isps, a)
		}
	}
	if len(pool) == 0 {
		pool = isps
	}
	if len(pool) == 0 {
		return 0
	}
	return pool[splitmix.Pick(splitmix.Mix(salt^0x74), len(pool))]
}

func (s *System) euHost(salt uint64) topology.ASN {
	countries := []string{"DE", "FR", "NL", "GB"}
	ctry := countries[splitmix.Pick(splitmix.Mix(salt^0x75), len(countries))]
	var pool []topology.ASN
	for _, a := range s.topo.ASesIn(ctry) {
		as := s.topo.ASes[a]
		if as.Type == topology.ASEnterprise || as.Type == topology.ASCloud {
			pool = append(pool, a)
		}
	}
	if len(pool) == 0 {
		return s.topo.ASesIn(ctry)[0]
	}
	return pool[splitmix.Pick(splitmix.Mix(salt^0x76), len(pool))]
}

// FetchResult describes where one fetch was served from.
type FetchResult struct {
	OK            bool
	Site          Site
	ServedASN     topology.ASN
	ServedCountry string
	ServedIXP     topology.IXPID // nonzero when served from an off-net at an exchange
	RTTms         float64
	LocalToAfrica bool
}

// Fetch simulates a client in clientASN loading the site and reports the
// serving location. CDN mapping follows the real mechanics: if the
// client's forwarding path reaches the CDN over an exchange peering
// where the CDN parks an off-net, the cache at that exchange serves it;
// otherwise the nearest regional PoP (Europe, or South Africa for
// operators with a ZA region) does.
func (s *System) Fetch(clientASN topology.ASN, site Site) FetchResult {
	res := FetchResult{Site: site}
	switch site.Kind {
	case HostCDN:
		return s.fetchCDN(clientASN, site)
	default:
		host := site.Provider
		if site.Kind == HostCloud {
			// Cloud-hosted: served from the operator's nearest region.
			pop, ctry, rtt, ok := s.nearestPoP(clientASN, site.Provider)
			if !ok {
				return res
			}
			res.OK = true
			res.ServedASN = pop
			res.ServedCountry = ctry
			res.RTTms = rtt
			res.LocalToAfrica = isAfrica(ctry)
			return res
		}
		rtt, ok := s.net.RTTBetween(clientASN, host)
		if !ok {
			return res
		}
		res.OK = true
		res.ServedASN = host
		res.ServedCountry = s.topo.ASes[host].Country
		res.RTTms = rtt
		res.LocalToAfrica = isAfrica(res.ServedCountry)
		return res
	}
}

func (s *System) fetchCDN(clientASN topology.ASN, site Site) FetchResult {
	res := FetchResult{Site: site}
	cdn := site.Provider
	path, ok := s.net.Router().Path(clientASN, cdn)
	if !ok {
		return res
	}
	// Off-net serving: last link of the path is an exchange peering into
	// the CDN at a fabric where it parks caches.
	last := path.Hops[len(path.Hops)-1]
	if last.ASN == cdn && len(path.Hops) >= 2 {
		l := s.topo.Link(last.Link)
		if l.Via != 0 && cdnHasOffnet(s.topo.ASes[cdn], l.Via) {
			x := s.topo.IXPs[l.Via]
			rtt, okRTT := s.net.RTTBetween(clientASN, cdn)
			if okRTT {
				res.OK = true
				res.ServedASN = cdn
				res.ServedCountry = x.Country
				res.ServedIXP = l.Via
				res.RTTms = rtt
				res.LocalToAfrica = isAfrica(x.Country)
				return res
			}
		}
	}
	// Otherwise the nearest regional PoP serves.
	pop, ctry, rtt, okPoP := s.nearestPoP(clientASN, cdn)
	if !okPoP {
		return res
	}
	res.OK = true
	res.ServedASN = pop
	res.ServedCountry = ctry
	res.RTTms = rtt
	res.LocalToAfrica = isAfrica(ctry)
	return res
}

// nearestPoP returns the operator's best serving region for a client:
// home country, Europe, or (for ZA-region operators) South Africa —
// whichever representative is reachable with the lowest RTT. The
// representative of a region is that country's first transit AS.
func (s *System) nearestPoP(client, operator topology.ASN) (rep topology.ASN, country string, rtt float64, ok bool) {
	op := s.topo.ASes[operator]
	type cand struct {
		asn  topology.ASN
		ctry string
	}
	var cands []cand
	cands = append(cands, cand{operator, op.Country})
	if t2 := firstTransit(s.topo, "DE"); t2 != 0 {
		cands = append(cands, cand{t2, "DE"})
	}
	if hasZARegionName(op.Name) {
		if t2 := firstTransit(s.topo, "ZA"); t2 != 0 {
			cands = append(cands, cand{t2, "ZA"})
		}
	}
	for _, c := range cands {
		r, okR := s.net.RTTBetween(client, c.asn)
		if !okR {
			continue
		}
		if !ok || r < rtt {
			rep, country, rtt, ok = c.asn, c.ctry, r, true
		}
	}
	return rep, country, rtt, ok
}

func hasZARegionName(name string) bool {
	switch name {
	case "GlobalCDN-A", "GlobalCDN-B", "GlobalCDN-C", "SocialCDN", "CloudOne", "CloudTwo":
		return true
	}
	return false
}

func firstTransit(t *topology.Topology, ctry string) topology.ASN {
	for _, a := range t.ASesIn(ctry) {
		if t.ASes[a].Type == topology.ASTransit {
			return a
		}
	}
	return 0
}

func cdnHasOffnet(as *topology.AS, x topology.IXPID) bool {
	for _, id := range as.OffNetAt {
		if id == x {
			return true
		}
	}
	return false
}

func isAfrica(iso2 string) bool {
	c, ok := geo.Lookup(iso2)
	return ok && c.Region.IsAfrica()
}

// LocalityShare measures, ISOC-Pulse-style, the share of a country's top
// sites served from inside Africa for a residential client in that
// country. The client is the country's incumbent eyeball network.
type LocalityShare struct {
	Country string
	Region  geo.Region
	Local   float64
	Samples int
	Failed  int
}

// MeasureLocality runs the Figure 2b measurement for one country.
func (s *System) MeasureLocality(iso2 string) LocalityShare {
	out := LocalityShare{Country: iso2, Region: geo.MustLookup(iso2).Region}
	client := s.residentialClient(iso2)
	if client == 0 {
		return out
	}
	local := 0
	for _, site := range s.catalog.SitesFor(iso2) {
		r := s.Fetch(client, site)
		if !r.OK {
			out.Failed++
			continue
		}
		out.Samples++
		if r.LocalToAfrica {
			local++
		}
	}
	if out.Samples > 0 {
		out.Local = float64(local) / float64(out.Samples)
	}
	return out
}

// ResidentialClient exposes the per-country eyeball vantage: the
// incumbent eyeball AS, the network a websteps probe in that country
// measures from. Returns 0 for countries with no eyeball networks.
func (s *System) ResidentialClient(iso2 string) topology.ASN { return s.residentialClient(iso2) }

// residentialClient picks the country's incumbent eyeball AS (what a
// residential VPN exit looks like).
func (s *System) residentialClient(iso2 string) topology.ASN {
	var best topology.ASN
	bestBorn := 9999
	for _, a := range s.topo.ASesIn(iso2) {
		as := s.topo.ASes[a]
		if as.Type != topology.ASFixedISP && as.Type != topology.ASMobileCarrier {
			continue
		}
		if as.Born < bestBorn || (as.Born == bestBorn && a < best) {
			best, bestBorn = a, as.Born
		}
	}
	return best
}
