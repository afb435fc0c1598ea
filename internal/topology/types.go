// Package topology generates and represents the synthetic Internet the
// observatory measures: autonomous systems with business relationships,
// Internet exchange points, subsea cables with landing stations and
// correlated corridors, and the physical realization of inter-AS links
// over cables and terrestrial routes.
//
// The generator is seeded and parameterized by year, so the same seed
// reproduces the same Internet, and a 2015..2025 sweep yields the
// infrastructure-growth timeline of the paper's Figure 1. The topology is
// calibrated to the structural facts the paper reports: Africa has no
// Tier-1 ASes and few Tier-2s, transit is EU-centric, last-mile is
// mobile-dominated, IXPs grew ~600% in a decade to 77 exchanges, and
// subsea cables grew ~45% along a small number of shared corridors.
package topology

import (
	"fmt"
	"sort"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netx"
)

// ASN is an autonomous system number.
type ASN uint32

// ASType classifies what an AS is in the ecosystem.
type ASType int

const (
	ASUnknown ASType = iota
	ASMobileCarrier
	ASFixedISP
	ASEnterprise
	ASEducation
	ASGovernment
	ASContent // CDN / content provider with off-net caches
	ASCloud   // public cloud / hosting
	ASTransit // wholesale transit carrier
	// ASIXPRouteServer is an IXP's management/route-server AS: it is
	// delegated the exchange's peering-LAN prefix by the RIR but never
	// advertises it in BGP.
	ASIXPRouteServer
)

var asTypeNames = map[ASType]string{
	ASUnknown:        "unknown",
	ASMobileCarrier:  "mobile",
	ASFixedISP:       "fixed-isp",
	ASEnterprise:     "enterprise",
	ASEducation:      "education",
	ASGovernment:     "government",
	ASContent:        "content",
	ASCloud:          "cloud",
	ASTransit:        "transit",
	ASIXPRouteServer: "ixp-rs",
}

func (t ASType) String() string {
	if s, ok := asTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("ASType(%d)", int(t))
}

// Tier is the transit hierarchy position of an AS.
type Tier int

const (
	TierStub Tier = iota
	Tier2
	Tier1
)

func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	default:
		return "stub"
	}
}

// AS is one autonomous system.
type AS struct {
	ASN     ASN
	Name    string
	Country string // ISO2 of registration; content/cloud ASes use HQ country
	Region  geo.Region
	Type    ASType
	Tier    Tier
	Born    int // first year the AS exists

	// Prefixes allocated to the AS (advertised in BGP).
	Prefixes []netx.Prefix

	// MobileShare is the Radar-style fraction of the AS's traffic that
	// originates on mobile devices; the paper classifies an ASN as
	// Mobile when this is >= 0.65.
	MobileShare float64

	// OffNetAt lists IXPs where a content/cloud AS hosts off-net caches.
	OffNetAt []IXPID

	// Responsive is the fraction of the AS's address space that answers
	// probes (mobile CGNAT space answers rarely; servers answer often).
	Responsive float64
}

// IsMobile reports the paper's Radar-based mobile classification.
func (a *AS) IsMobile() bool { return a.MobileShare >= 0.65 }

// RelKind is the business relationship on a link.
type RelKind int

const (
	// CustomerProvider: A pays B for transit (A customer, B provider).
	CustomerProvider RelKind = iota
	// PeerPeer: settlement-free peering, possibly over an IXP fabric.
	PeerPeer
)

func (k RelKind) String() string {
	if k == CustomerProvider {
		return "c2p"
	}
	return "p2p"
}

// LinkID indexes into Topology.Links.
type LinkID int

// Link is one inter-AS adjacency.
type Link struct {
	ID   LinkID
	A, B ASN // for CustomerProvider, A is the customer
	Kind RelKind
	Via  IXPID // nonzero when the peering happens over an IXP fabric
	Born int

	// Path is the physical realization: the country-level waypoints and
	// the conduits carrying each segment. Populated by realizeLinks.
	Path []Segment
}

// Segment is one physical hop of a link's realization.
type Segment struct {
	FromCountry string
	ToCountry   string
	Conduit     ConduitID // terrestrial conduit or subsea cable segment
	KM          float64
}

// IXPID identifies an Internet exchange point.
type IXPID int

// IXP is one Internet exchange point.
type IXP struct {
	ID      IXPID
	Name    string
	Country string
	Born    int

	// LAN is the exchange's peering-LAN prefix. Faithful to operational
	// practice (and to why Table 1's scanners miss IXPs), LAN prefixes
	// are NOT advertised in the global BGP table.
	LAN netx.Prefix

	Members []ASN
}

// CableID identifies a subsea cable system.
type CableID int

// Cable is one subsea cable system: an ordered chain of landing stations.
type Cable struct {
	ID       CableID
	Name     string
	Born     int
	Corridor string  // corridor label; cables in one corridor fail together
	Capacity float64 // normalized units of carried AS-link load
	Landings []Landing
}

// Landing is one landing station on a cable.
type Landing struct {
	Country string
	City    string
	Site    geo.Coord
}

// ConduitID identifies a physical conduit: either a segment of a subsea
// cable (between two consecutive landings) or a terrestrial path between
// neighboring countries.
type ConduitID int

// Conduit is an edge of the physical country-level graph.
type Conduit struct {
	ID          ConduitID
	FromCountry string
	ToCountry   string
	Cable       CableID // 0 for terrestrial conduits
	KM          float64
	Capacity    float64
	Born        int
}

// IsSubsea reports whether the conduit is a subsea cable segment.
func (c *Conduit) IsSubsea() bool { return c.Cable != 0 }

// Topology is a generated Internet snapshot for one year.
type Topology struct {
	Seed int64
	Year int

	ASes     map[ASN]*AS
	Links    []Link
	IXPs     map[IXPID]*IXP
	Cables   map[CableID]*Cable
	Conduits []Conduit

	// Derived indexes (built by buildIndexes).
	asnList   []ASN                // sorted
	ixpList   []IXPID              // sorted
	cableList []CableID            // sorted
	neighbors map[ASN][]LinkID     // links touching each AS
	byCountry map[string][]ASN     // ASes registered per country
	conduitBy map[string][]int     // conduit indexes per country
	corridors map[string][]CableID // cables per corridor
}

// ASNs returns all ASNs sorted ascending.
func (t *Topology) ASNs() []ASN { return t.asnList }

// IXPIDs returns all IXP ids sorted ascending.
func (t *Topology) IXPIDs() []IXPID { return t.ixpList }

// CableIDs returns all cable ids sorted ascending.
func (t *Topology) CableIDs() []CableID { return t.cableList }

// LinksOf returns the ids of all links touching the AS.
func (t *Topology) LinksOf(a ASN) []LinkID { return t.neighbors[a] }

// ASesIn returns the ASNs registered in the country, sorted.
func (t *Topology) ASesIn(iso2 string) []ASN { return t.byCountry[iso2] }

// Corridors returns cable ids grouped by corridor label.
func (t *Topology) Corridors() map[string][]CableID {
	out := make(map[string][]CableID, len(t.corridors))
	for k, v := range t.corridors {
		cp := make([]CableID, len(v))
		copy(cp, v)
		out[k] = cp
	}
	return out
}

// Country returns the gazetteer record for an AS's country.
func (t *Topology) Country(a ASN) *geo.Country {
	as := t.ASes[a]
	if as == nil {
		return nil
	}
	c, _ := geo.Lookup(as.Country)
	return c
}

// RegionOf returns the region of an AS, or geo.RegionUnknown.
func (t *Topology) RegionOf(a ASN) geo.Region {
	if as := t.ASes[a]; as != nil {
		return as.Region
	}
	return geo.RegionUnknown
}

// NewManual assembles a topology from explicit parts — for tests, small
// worked examples, and loading externally-specified graphs. Link IDs are
// renumbered to match slice positions; indexes are built; links are NOT
// physically realized (Path stays as given).
func NewManual(ases []*AS, links []Link, ixps []*IXP) *Topology {
	t := &Topology{
		ASes:   make(map[ASN]*AS, len(ases)),
		IXPs:   make(map[IXPID]*IXP, len(ixps)),
		Cables: make(map[CableID]*Cable),
	}
	for _, as := range ases {
		t.ASes[as.ASN] = as
	}
	for _, x := range ixps {
		t.IXPs[x.ID] = x
	}
	t.Links = append(t.Links, links...)
	for i := range t.Links {
		t.Links[i].ID = LinkID(i)
	}
	t.buildIndexes()
	return t
}

// buildIndexes fills all derived lookup structures. It must be called
// after any structural mutation (the generator calls it once).
func (t *Topology) buildIndexes() {
	t.asnList = t.asnList[:0]
	for a := range t.ASes {
		t.asnList = append(t.asnList, a)
	}
	sort.Slice(t.asnList, func(i, j int) bool { return t.asnList[i] < t.asnList[j] })

	t.ixpList = t.ixpList[:0]
	for id := range t.IXPs {
		t.ixpList = append(t.ixpList, id)
	}
	sort.Slice(t.ixpList, func(i, j int) bool { return t.ixpList[i] < t.ixpList[j] })

	t.cableList = t.cableList[:0]
	for id := range t.Cables {
		t.cableList = append(t.cableList, id)
	}
	sort.Slice(t.cableList, func(i, j int) bool { return t.cableList[i] < t.cableList[j] })

	t.neighbors = make(map[ASN][]LinkID, len(t.ASes))
	for i := range t.Links {
		l := &t.Links[i]
		t.neighbors[l.A] = append(t.neighbors[l.A], l.ID)
		t.neighbors[l.B] = append(t.neighbors[l.B], l.ID)
	}

	t.byCountry = make(map[string][]ASN)
	for _, a := range t.asnList {
		as := t.ASes[a]
		t.byCountry[as.Country] = append(t.byCountry[as.Country], a)
	}

	t.conduitBy = make(map[string][]int)
	for i := range t.Conduits {
		c := &t.Conduits[i]
		t.conduitBy[c.FromCountry] = append(t.conduitBy[c.FromCountry], i)
		t.conduitBy[c.ToCountry] = append(t.conduitBy[c.ToCountry], i)
	}

	t.corridors = make(map[string][]CableID)
	for _, id := range t.cableList {
		c := t.Cables[id]
		if c.Corridor != "" {
			t.corridors[c.Corridor] = append(t.corridors[c.Corridor], id)
		}
	}
}

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) *Link { return &t.Links[id] }
