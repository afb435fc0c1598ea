// Package dnssim models the DNS dependency structure the paper's
// Section 5.2 analyzes: which recursive resolver each client network
// uses (an in-country ISP resolver, a resolver outsourced to another
// country, or an anycast public cloud resolver), where authoritative
// servers sit, and what happens to resolution when cables are cut.
//
// The per-region resolver mixes are the generative model behind the
// paper's Figure 2c (APNIC resolver-use data): most African regions lean
// heavily on out-of-country and cloud resolvers, and the public clouds'
// only African sites are in South Africa.
//
// Resolution runs one path (chain.go): each client's memoized chain
// answers from the cache or runs the recursive leg and then the
// authority leg. Resolve below returns that answer in the legacy shape,
// and ResolveWithPolicy runs the same legs under a forced assignment and
// authority.
package dnssim

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
)

// ResolverKind classifies where a client's recursive resolver runs.
type ResolverKind int

const (
	ResolverLocalISP     ResolverKind = iota // in the client's country
	ResolverOtherCountry                     // outsourced to another country
	ResolverCloud                            // anycast public resolver
)

func (k ResolverKind) String() string {
	switch k {
	case ResolverLocalISP:
		return "same-country"
	case ResolverOtherCountry:
		return "other-country"
	default:
		return "cloud"
	}
}

// Assignment is a recursive resolver assignment for one client network
// (the struct the pre-chain API called Resolver; Resolver is now the
// chain interface in chain.go).
type Assignment struct {
	Kind    ResolverKind
	ASN     topology.ASN // hosting AS (for cloud: the anycast AS)
	Country string       // hosting country ("" for anycast until resolved)
}

// resolverMix is the per-region client mix (fractions sum to 1).
type resolverMix struct {
	local, other, cloud float64
	// otherEU is, within the "other country" share, the fraction
	// outsourced outside Africa (the rest goes to regional hubs).
	otherEU float64
	// authLocal is the share of in-country domains whose authoritative
	// DNS is hosted in-country.
	authLocal float64
}

var mixes = map[geo.Region]resolverMix{
	geo.AfricaNorthern: {local: 0.55, other: 0.15, cloud: 0.30, otherEU: 0.80, authLocal: 0.30},
	geo.AfricaWestern:  {local: 0.25, other: 0.32, cloud: 0.43, otherEU: 0.65, authLocal: 0.15},
	geo.AfricaCentral:  {local: 0.18, other: 0.37, cloud: 0.45, otherEU: 0.70, authLocal: 0.10},
	geo.AfricaEastern:  {local: 0.42, other: 0.20, cloud: 0.38, otherEU: 0.45, authLocal: 0.25},
	geo.AfricaSouthern: {local: 0.65, other: 0.05, cloud: 0.30, otherEU: 0.50, authLocal: 0.55},
	geo.Europe:         {local: 0.72, other: 0.05, cloud: 0.23, otherEU: 0.0, authLocal: 0.85},
	geo.NorthAmerica:   {local: 0.70, other: 0.04, cloud: 0.26, otherEU: 0.0, authLocal: 0.85},
	geo.SouthAmerica:   {local: 0.55, other: 0.12, cloud: 0.33, otherEU: 0.40, authLocal: 0.55},
	geo.AsiaPacific:    {local: 0.60, other: 0.10, cloud: 0.30, otherEU: 0.30, authLocal: 0.60},
}

// System is the DNS layer bound to a data plane.
type System struct {
	net  *netsim.Net
	topo *topology.Topology
	seed uint64

	cloudASNs []topology.ASN // anycast resolver operators
	// cloudSites lists each cloud resolver's instance locations
	// (AS they are announced from). Only South Africa hosts African
	// instances, per Section 5.2.
	cloudSites map[topology.ASN][]topology.ASN
	// mu guards the lazily-filled memo maps below. All three memoize
	// pure functions of the seed, so concurrent fills race only on who
	// stores the (identical) value first — and none of them needs
	// invalidating when the data plane changes.
	mu          sync.RWMutex
	assignments map[topology.ASN]Assignment
	authMemo    map[string]AuthLocation
	chains      map[topology.ASN]*chain

	// memo holds every reachability-dependent cache (anycast site
	// selection, whole-chain answers), stamped with the (routing
	// generation, failure epoch) it was computed under — the scoping
	// pattern netsim's path memos use. A link flap swaps this pointer on
	// the next query; the seed-pure maps above survive untouched.
	memo atomic.Pointer[chainMemo]
}

func (s *System) f(vals ...uint64) float64 { return splitmix.Unit(splitmix.Fold(s.seed, vals...)) }

// New builds the DNS layer. Resolver assignments are deterministic in
// the seed.
func New(n *netsim.Net, seed int64) *System {
	s := &System{
		net:         n,
		topo:        n.Topology(),
		seed:        uint64(seed),
		cloudSites:  make(map[topology.ASN][]topology.ASN),
		assignments: make(map[topology.ASN]Assignment),
		authMemo:    make(map[string]AuthLocation),
		chains:      make(map[topology.ASN]*chain),
	}
	// Cloud resolvers run on the cloud/content ASes that operate
	// public resolver services.
	for _, asn := range s.topo.ASNs() {
		as := s.topo.ASes[asn]
		if as.Type != topology.ASCloud && as.Type != topology.ASContent {
			continue
		}
		// The resolver operators in the model: the big CDN-C-style
		// resolver and the three clouds.
		switch as.Name {
		case "GlobalCDN-C", "CloudOne", "CloudTwo", "CloudThree":
			s.cloudASNs = append(s.cloudASNs, asn)
		}
	}
	sort.Slice(s.cloudASNs, func(i, j int) bool { return s.cloudASNs[i] < s.cloudASNs[j] })

	// Anycast sites: the operator AS itself (US), a European presence,
	// and — only for operators with a South African region — a ZA site.
	// Sites are represented by the AS whose location serves the
	// instance; routing to an anycast site is "nearest reachable".
	for _, cn := range s.cloudASNs {
		as := s.topo.ASes[cn]
		sites := []topology.ASN{cn} // home (US)
		// European site: the operator's EU presence is modeled via the
		// EU Tier-2 it is closest to; we pick the first German Tier-2.
		for _, c := range []string{"DE", "FR", "NL"} {
			for _, t2 := range s.topo.ASesIn(c) {
				if s.topo.ASes[t2].Type == topology.ASTransit {
					sites = append(sites, t2)
					break
				}
			}
			if len(sites) >= 2 {
				break
			}
		}
		if hasZARegion(as.Name) {
			for _, t2 := range s.topo.ASesIn("ZA") {
				if s.topo.ASes[t2].Type == topology.ASTransit {
					sites = append(sites, t2)
					break
				}
			}
		}
		s.cloudSites[cn] = sites
	}
	return s
}

// hasZARegion mirrors the topology content catalog: which operators have
// a South African region.
func hasZARegion(name string) bool {
	switch name {
	case "GlobalCDN-C", "CloudOne", "CloudTwo":
		return true
	}
	return false
}

// regionalHubCountry returns the African country a region outsources
// resolvers to when it does not outsource to Europe.
func regionalHubCountry(r geo.Region) string {
	switch r {
	case geo.AfricaSouthern, geo.AfricaCentral:
		return "ZA"
	case geo.AfricaEastern:
		return "ZA"
	case geo.AfricaWestern:
		return "NG"
	case geo.AfricaNorthern:
		return "EG"
	}
	return "ZA"
}

// AssignmentFor returns the recursive resolver assignment of a client
// network (deterministic per client AS; safe for concurrent callers).
func (s *System) AssignmentFor(client topology.ASN) Assignment {
	s.mu.RLock()
	r, ok := s.assignments[client]
	s.mu.RUnlock()
	if ok {
		return r
	}
	r = s.computeAssignment(client)
	s.mu.Lock()
	s.assignments[client] = r
	s.mu.Unlock()
	return r
}

// computeAssignment derives a client's assignment — a pure function of
// the seed and the client ASN.
func (s *System) computeAssignment(client topology.ASN) Assignment {
	as := s.topo.ASes[client]
	if as == nil {
		return Assignment{}
	}
	mix := mixes[as.Region]
	var r Assignment
	draw := s.f(uint64(client), 0x51)
	switch {
	case draw < mix.local:
		r.Kind = ResolverLocalISP
		r.Country = as.Country
		r.ASN = s.inCountryResolverHost(as.Country, client)
	case draw < mix.local+mix.other:
		r.Kind = ResolverOtherCountry
		if s.f(uint64(client), 0x52) < mix.otherEU {
			// Outsourced to a European operator.
			r.Country = []string{"FR", "DE", "GB"}[splitmix.Pick(splitmix.Mix(s.seed^uint64(client)^0x53), 3)]
		} else {
			r.Country = regionalHubCountry(as.Region)
		}
		r.ASN = s.inCountryResolverHost(r.Country, client)
	default:
		r.Kind = ResolverCloud
		r.ASN = s.cloudASNs[splitmix.Pick(splitmix.Mix(s.seed^uint64(client)^0x54), len(s.cloudASNs))]
	}
	return r
}

// inCountryResolverHost picks the AS hosting a resolver in the country:
// prefer the incumbent ISP, else any ISP, else any AS.
func (s *System) inCountryResolverHost(ctry string, salt topology.ASN) topology.ASN {
	var isps, all []topology.ASN
	for _, a := range s.topo.ASesIn(ctry) {
		as := s.topo.ASes[a]
		if as.Type == topology.ASIXPRouteServer {
			continue
		}
		all = append(all, a)
		if as.Type == topology.ASFixedISP || as.Type == topology.ASMobileCarrier {
			isps = append(isps, a)
		}
	}
	pool := isps
	if len(pool) == 0 {
		pool = all
	}
	if len(pool) == 0 {
		return 0
	}
	return pool[splitmix.Pick(splitmix.Mix(s.seed^uint64(salt)^0x55), len(pool))]
}

// AnycastSite picks the nearest *reachable* instance of a cloud resolver
// for a client, returning the site AS; ok=false when no instance is
// reachable (e.g. mid cable cut). Results are memoized under the current
// (routing generation, failure epoch) stamp.
func (s *System) AnycastSite(client, cloud topology.ASN) (topology.ASN, bool) {
	m := s.memoNow()
	key := siteKey{client: client, cloud: cloud}
	if v, ok := m.sites.Load(key); ok {
		sv := v.(siteVal)
		return sv.site, sv.ok
	}
	site, ok := s.anycastSiteUncached(client, cloud)
	if s.net.Router().Gen() == m.gen && s.net.Epoch() == m.epoch {
		// Only cache results whose inputs were stable across the whole
		// computation; a concurrent failure change just skips the store.
		m.sites.Store(key, siteVal{site: site, ok: ok})
	}
	return site, ok
}

func (s *System) anycastSiteUncached(client, cloud topology.ASN) (topology.ASN, bool) {
	sites := s.cloudSites[cloud]
	best := topology.ASN(0)
	bestRTT := 0.0
	for _, site := range sites {
		rtt, ok := s.net.RTTBetween(client, site)
		if !ok {
			continue
		}
		if best == 0 || rtt < bestRTT {
			best, bestRTT = site, rtt
		}
	}
	return best, best != 0
}

// AuthPlacement decides where a domain's authoritative DNS is hosted,
// given the domain's origin country: in-country, in a public cloud, or
// in Europe. Deterministic per domain.
type AuthLocation struct {
	ASN     topology.ASN
	Country string
	Cloud   bool
}

// Authority places a domain's authoritative servers. The placement is a
// pure function of the seed and the arguments, memoized because page
// loads re-resolve the same domains constantly.
func (s *System) Authority(domain, originCountry string) AuthLocation {
	key := domain + "\x00" + originCountry
	s.mu.RLock()
	loc, okM := s.authMemo[key]
	s.mu.RUnlock()
	if okM {
		return loc
	}
	loc = s.computeAuthority(domain, originCountry)
	s.mu.Lock()
	s.authMemo[key] = loc
	s.mu.Unlock()
	return loc
}

func (s *System) computeAuthority(domain, originCountry string) AuthLocation {
	c, ok := geo.Lookup(originCountry)
	if !ok {
		return AuthLocation{}
	}
	mix := mixes[c.Region]
	h := splitmix.String(0, domain)
	draw := s.f(h, 0x61)
	if draw < mix.authLocal {
		return AuthLocation{ASN: s.inCountryResolverHost(originCountry, topology.ASN(h)), Country: originCountry}
	}
	// Remote authoritative: mostly on clouds, else plain EU hosting.
	if s.f(h, 0x62) < 0.7 {
		cloud := s.cloudASNs[splitmix.Pick(splitmix.Mix(h^0x63), len(s.cloudASNs))]
		return AuthLocation{ASN: cloud, Country: s.topo.ASes[cloud].Country, Cloud: true}
	}
	euHost := s.inCountryResolverHost([]string{"DE", "FR", "GB", "NL"}[splitmix.Pick(splitmix.Mix(h^0x64), 4)], topology.ASN(h))
	return AuthLocation{ASN: euHost, Country: s.topo.ASes[euHost].Country}
}

// Resolution is the outcome of one end-to-end DNS lookup (the legacy
// result shape; chain consumers get the richer Answer).
type Resolution struct {
	OK         bool
	LatencyMs  float64
	Resolver   Assignment
	ResolverAS topology.ASN // concrete AS serving the query (anycast resolved)
	Auth       AuthLocation
	FailReason string
}

// Resolve performs client -> recursive -> authoritative resolution over
// the current data plane, failing when either leg is unreachable. This
// is the "hidden dependency" code path: a client whose resolver sits
// abroad loses DNS — and hence every local service — when the cable that
// carries that leg is cut.
//
// Resolve returns the answer of the client's chain (ChainFor); its
// outputs are identical to the pre-chain implementation, which
// TestChainMatchesLegacyOracle proves against an independent oracle.
func (s *System) Resolve(client topology.ASN, domain, originCountry string) Resolution {
	return s.ChainFor(client).Resolve(Query{
		Client: client, Domain: domain, OriginCountry: originCountry,
	}).resolution()
}

// resolution is the answer in the legacy result shape.
func (a Answer) resolution() Resolution {
	return Resolution{
		OK:         a.OK,
		LatencyMs:  a.LatencyMs,
		Resolver:   a.Assignment,
		ResolverAS: a.ResolverAS,
		Auth:       a.Auth,
		FailReason: a.FailReason,
	}
}

// ResolveWithPolicy is Resolve under counterfactual regulation — the
// "legislate critical dependencies" intervention of Section 5.2's
// takeaway. forceLocalResolver puts every client on an in-country
// recursive resolver; forceLocalAuth additionally hosts the
// authoritative DNS of domestic domains in their origin country (the
// full localization the paper argues current content-localization laws
// miss). The data plane stays as-is, so deltas isolate the dependency.
// The forced resolution runs the chain's legs uncached, so its failures
// read as Resolve's do.
func (s *System) ResolveWithPolicy(client topology.ASN, domain, originCountry string, forceLocalResolver, forceLocalAuth bool) Resolution {
	if !forceLocalResolver && !forceLocalAuth {
		return s.Resolve(client, domain, originCountry)
	}
	as := s.topo.ASes[client]
	if as == nil {
		return Resolution{FailReason: "unknown client"}
	}
	// Resolver as deployed today unless the policy moves it too.
	c := chain{s: s, asg: s.AssignmentFor(client)}
	if forceLocalResolver {
		// The mandated resolver runs inside the client's own ISP when
		// the client is one (operational practice), else at a domestic
		// ISP. Note the residual exposure this leaves: reaching another
		// domestic network can still detour through Europe when there is
		// no local peering — DNS localization alone cannot fix Section
		// 4.1's routing problem.
		host := client
		if as.Type != topology.ASMobileCarrier && as.Type != topology.ASFixedISP {
			host = s.inCountryResolverHost(as.Country, client)
		}
		c.asg = Assignment{Kind: ResolverLocalISP, Country: as.Country, ASN: host}
		if host == 0 {
			return Resolution{Resolver: c.asg, FailReason: "no in-country resolver host"}
		}
	}
	auth := s.Authority(domain, originCountry)
	if forceLocalAuth {
		if host := s.inCountryResolverHost(originCountry, topology.ASN(len(domain))); host != 0 {
			auth = AuthLocation{ASN: host, Country: originCountry}
		}
	}
	return c.legs(Query{Client: client, Domain: domain, OriginCountry: originCountry}, auth).resolution()
}

// UseShare is one region's resolver-locality breakdown (Figure 2c).
type UseShare struct {
	Region       geo.Region
	SameCountry  float64
	OtherCountry float64
	Cloud        float64
	Samples      int
}

// MeasureResolverUse runs the APNIC-style sampling measurement: for each
// client network in the region (weighted equally, as ad sampling roughly
// does at AS granularity), observe which resolver its queries arrive
// from and classify its location.
func (s *System) MeasureResolverUse(region geo.Region) UseShare {
	out := UseShare{Region: region}
	var same, other, cloud int
	for _, asn := range s.topo.ASNs() {
		as := s.topo.ASes[asn]
		if as.Region != region || !isClientNetwork(as) {
			continue
		}
		r := s.AssignmentFor(asn)
		out.Samples++
		switch r.Kind {
		case ResolverLocalISP:
			same++
		case ResolverOtherCountry:
			other++
		default:
			cloud++
		}
	}
	if out.Samples > 0 {
		out.SameCountry = float64(same) / float64(out.Samples)
		out.OtherCountry = float64(other) / float64(out.Samples)
		out.Cloud = float64(cloud) / float64(out.Samples)
	}
	return out
}

// ClientNetworks lists the country's end-user networks — the vantage
// set resolver studies (and the dnsload driver) sample from.
func (s *System) ClientNetworks(country string) []topology.ASN {
	var out []topology.ASN
	for _, asn := range s.topo.ASesIn(country) {
		if isClientNetwork(s.topo.ASes[asn]) {
			out = append(out, asn)
		}
	}
	return out
}

// CountryOf returns the hosting country of an AS ("" when unknown).
func (s *System) CountryOf(asn topology.ASN) string {
	if as := s.topo.ASes[asn]; as != nil {
		return as.Country
	}
	return ""
}

// isClientNetwork reports whether an AS originates end-user queries.
func isClientNetwork(as *topology.AS) bool {
	switch as.Type {
	case topology.ASMobileCarrier, topology.ASFixedISP, topology.ASEducation, topology.ASEnterprise, topology.ASGovernment:
		return true
	}
	return false
}
