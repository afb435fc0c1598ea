// Package scan implements the three Internet-scanning methodologies the
// paper's Table 1 evaluates against Africa's infrastructure:
//
//   - ANT-style hitlists: one historically-responsive representative per
//     routed /24 (built from longitudinal probing history), plus the
//     LAN addresses of exchanges that past traceroutes happened to cross;
//   - CAIDA Routed /24 Topology: traceroute to one random address per
//     routed /24 from a globally distributed (Africa-sparse) vantage set;
//   - YARRP: randomized high-speed traceroute to a sample of the routed
//     space from a single vantage.
//
// Coverage is then computed per the paper's methodology: map what each
// tool saw to ASNs, classify ASNs Mobile / Non-mobile / IXP, and divide
// by the AfriNIC-delegated expectations.
package scan

import (
	"sort"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
)

// Tool identifies a scanning methodology.
type Tool int

const (
	ToolANT Tool = iota
	ToolCAIDA
	ToolYARRP
)

func (t Tool) String() string {
	switch t {
	case ToolANT:
		return "ANT Hitlist"
	case ToolCAIDA:
		return "CAIDA Hitlist"
	default:
		return "YARRP"
	}
}

// Hitlist is one tool's target list.
type Hitlist struct {
	Tool    Tool
	Targets []netx.Addr
}

// Builder constructs hitlists over a data plane's address space.
type Builder struct {
	net  *netsim.Net
	rt   *bgp.RoutedTable
	topo *topology.Topology
	seed uint64
}

// NewBuilder binds a builder to the data plane and routed table.
func NewBuilder(n *netsim.Net, rt *bgp.RoutedTable, seed int64) *Builder {
	return &Builder{net: n, rt: rt, topo: n.Topology(), seed: uint64(seed)}
}

// BuildANT assembles the ANT-style hitlist: for each routed /24, probe
// history (modeled by the responsiveness oracle over a sample of
// addresses) yields a responsive representative when one exists; the
// list also carries IXP LAN addresses learned from historical
// traceroutes, with the modest hit rate the paper measures.
func (b *Builder) BuildANT() Hitlist {
	h := Hitlist{Tool: ToolANT}
	const historySamples = 48
	// Each /24's probing history is independent; fan out and flatten the
	// per-block target lists in index order, matching the serial append.
	p24s := b.rt.Slash24s()
	perBlock := par.Map(0, len(p24s), func(i int) []netx.Addr {
		p24 := p24s[i]
		var targets []netx.Addr
		for k := 0; k < historySamples; k++ {
			a := p24.Nth(uint64(1 + splitmix.Pick(splitmix.Mix(b.seed^uint64(p24.Base())^uint64(k)), 254)))
			if b.net.AddrResponds(a) {
				targets = append(targets, a)
				// Historical lists retain a second candidate per block.
				second := p24.Nth(uint64(1 + splitmix.Pick(splitmix.Mix(b.seed^uint64(p24.Base())^0x99), 254)))
				targets = append(targets, second)
				break
			}
		}
		return targets
	})
	for _, ts := range perBlock {
		h.Targets = append(h.Targets, ts...)
	}
	// Exchange LANs reached by old traceroute campaigns.
	for _, id := range b.topo.IXPIDs() {
		x := b.topo.IXPs[id]
		if splitmix.Unit(splitmix.Mix(b.seed^uint64(id)^0xAB)) < ixpHistoricalHitProb(b.topo, x) {
			h.Targets = append(h.Targets, x.LAN.Nth(2))
		}
	}
	return h
}

// ixpHistoricalHitProb is the chance an exchange's LAN ever appeared in
// the historical traceroutes feeding the hitlist: large fabrics with
// many members are crossed often; small African fabrics almost never.
func ixpHistoricalHitProb(t *topology.Topology, x *topology.IXP) float64 {
	p := 0.04 * float64(len(x.Members))
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// BuildCAIDA assembles the routed-/24 target list: one random address
// per routed /24 (fresh randomness per cycle, one cycle here).
func (b *Builder) BuildCAIDA() Hitlist {
	h := Hitlist{Tool: ToolCAIDA}
	for _, p24 := range b.rt.Slash24s() {
		a := p24.Nth(uint64(1 + splitmix.Pick(splitmix.Mix(b.seed^uint64(p24.Base())^0xC1), 254)))
		h.Targets = append(h.Targets, a)
	}
	return h
}

// BuildYARRP assembles the randomized sample: a share of the routed /24
// space in randomized order (YARRP's stateless sweep probed far fewer
// addresses than the hitlists in the paper's run).
func (b *Builder) BuildYARRP(share float64) Hitlist {
	h := Hitlist{Tool: ToolYARRP}
	for _, p24 := range b.rt.Slash24s() {
		if splitmix.Unit(splitmix.Mix(b.seed^uint64(p24.Base())^0xD2)) >= share {
			continue
		}
		a := p24.Nth(uint64(1 + splitmix.Pick(splitmix.Mix(b.seed^uint64(p24.Base())^0xD3), 254)))
		h.Targets = append(h.Targets, a)
	}
	return h
}

// Observation is the outcome of running (or statically analyzing) a tool.
type Observation struct {
	Tool Tool
	// Entries is the hitlist size.
	Entries int
	// ASNs maps every observed ASN to true.
	ASNs map[topology.ASN]bool
	// IXPs seen via their LAN prefixes.
	IXPs map[topology.IXPID]bool
}

// AnalyzeStatic maps hitlist addresses to ASNs without probing — the
// paper's static coverage analysis for ANT and CAIDA-style lists. IXP
// LAN addresses map to the exchange's route-server ASN.
func (b *Builder) AnalyzeStatic(h Hitlist) Observation {
	obs := Observation{Tool: h.Tool, Entries: len(h.Targets),
		ASNs: make(map[topology.ASN]bool), IXPs: make(map[topology.IXPID]bool)}
	for _, a := range h.Targets {
		if asn, ok := b.rt.Origin(a); ok {
			obs.ASNs[asn] = true
			continue
		}
		if x, ok := b.net.IXPOf(a); ok {
			obs.IXPs[x] = true
			obs.ASNs[registry.RouteServerASN(x)] = true
		}
	}
	return obs
}

// Run executes the tool's probing from the given vantage ASNs,
// traceroute-style: an ASN counts as observed when any of its addresses
// answers or any of its routers appears on a path; exchanges count when
// their LAN addresses show up as hops.
//
// lastHopLoss models YARRP's stateless operation, which loses a share of
// final hops (it cannot adapt TTLs); pass 0 for stateful tools.
// lanHopLoss models probe-type filtering at exchange LANs: whether a
// fabric-facing interface answers a given tool's probe style (UDP
// high-port vs ICMP-paris, rate-limit class) is per-interface policy, so
// the draw is deterministic per (vantage, exchange). Stateless UDP
// sweeps get filtered almost everywhere (the paper's 2.9% YARRP IXP
// coverage); ICMP topology probing less so.
func (b *Builder) Run(h Hitlist, vantages []topology.ASN, lastHopLoss, lanHopLoss float64) Observation {
	obs := Observation{Tool: h.Tool, Entries: len(h.Targets),
		ASNs: make(map[topology.ASN]bool), IXPs: make(map[topology.IXPID]bool)}
	if len(vantages) == 0 {
		return obs
	}
	// Each target's traceroute only adds members to the observed sets —
	// an order-independent union — so traceroutes fan out and the partial
	// sightings merge into the same maps a serial run would build.
	type sighting struct {
		asns []topology.ASN
		ixps []topology.IXPID
	}
	partials := par.Map(0, len(h.Targets), func(i int) sighting {
		target := h.Targets[i]
		v := vantages[i%len(vantages)]
		tr := b.net.Traceroute(v, target)
		dropLast := lastHopLoss > 0 &&
			splitmix.Unit(splitmix.Mix(b.seed^uint64(target)^0xE4)) < lastHopLoss
		var sg sighting
		for j, hop := range tr.Hops {
			if hop.Addr == 0 {
				continue
			}
			if dropLast && j >= len(tr.Hops)-2 {
				continue
			}
			if x, ok := b.net.IXPOf(hop.Addr); ok {
				if lanHopLoss > 0 &&
					splitmix.Unit(splitmix.Mix(b.seed^uint64(x)<<20^uint64(v)^0xF7)) < lanHopLoss {
					continue
				}
				sg.ixps = append(sg.ixps, x)
				sg.asns = append(sg.asns, registry.RouteServerASN(x))
				continue
			}
			if asn, ok := b.rt.Origin(hop.Addr); ok {
				sg.asns = append(sg.asns, asn)
			}
		}
		return sg
	})
	for _, sg := range partials {
		for _, asn := range sg.asns {
			obs.ASNs[asn] = true
		}
		for _, x := range sg.ixps {
			obs.IXPs[x] = true
		}
	}
	return obs
}

// CoverageRow is one line of Table 1.
type CoverageRow struct {
	Tool      Tool
	Entries   int
	Mobile    float64
	NonMobile float64
	IXP       float64
}

// RegionalCoverage is per-region coverage for one tool.
type RegionalCoverage struct {
	Region    geo.Region
	Mobile    float64
	NonMobile float64
	IXP       float64
}

// Coverage computes the paper's coverage metric over African ASNs:
// |observed| / |expected| per class, with expectations from the AfriNIC
// delegated file.
func Coverage(t *topology.Topology, obs Observation) CoverageRow {
	exp := expectedByClass(t, geo.RegionUnknown)
	got := observedByClass(t, obs, geo.RegionUnknown)
	return CoverageRow{
		Tool:      obs.Tool,
		Entries:   obs.Entries,
		Mobile:    share(got[registry.ClassMobile], exp[registry.ClassMobile]),
		NonMobile: share(got[registry.ClassNonMobile], exp[registry.ClassNonMobile]),
		IXP:       share(got[registry.ClassIXP], exp[registry.ClassIXP]),
	}
}

// CoverageByRegion computes the same metric per African subregion.
func CoverageByRegion(t *topology.Topology, obs Observation) []RegionalCoverage {
	var out []RegionalCoverage
	for _, r := range geo.AfricanRegions() {
		exp := expectedByClass(t, r)
		got := observedByClass(t, obs, r)
		out = append(out, RegionalCoverage{
			Region:    r,
			Mobile:    share(got[registry.ClassMobile], exp[registry.ClassMobile]),
			NonMobile: share(got[registry.ClassNonMobile], exp[registry.ClassNonMobile]),
			IXP:       share(got[registry.ClassIXP], exp[registry.ClassIXP]),
		})
	}
	return out
}

func share(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// expectedByClass counts the ASNs of the AfriNIC delegated file per
// class (region filter optional via geo.RegionUnknown).
func expectedByClass(t *topology.Topology, region geo.Region) map[registry.Classify]int {
	out := map[registry.Classify]int{}
	for _, d := range registry.AfriNIC(t) {
		if region != geo.RegionUnknown && d.Region != region {
			continue
		}
		for _, asn := range d.ASNs {
			out[registry.ClassifyASN(t, asn)]++
		}
	}
	return out
}

func observedByClass(t *topology.Topology, obs Observation, region geo.Region) map[registry.Classify]int {
	out := map[registry.Classify]int{}
	for asn := range obs.ASNs {
		as := t.ASes[asn]
		if as == nil || !as.Region.IsAfrica() {
			continue
		}
		if region != geo.RegionUnknown && as.Region != region {
			continue
		}
		out[registry.ClassifyASN(t, asn)]++
	}
	return out
}

// ArkVantages returns a CAIDA-Ark-like vantage set: heavily concentrated
// in Europe and North America, with a token African presence — the
// geographic bias Section 6.2 calls out.
func ArkVantages(t *topology.Topology, n int) []topology.ASN {
	weights := map[geo.Region]int{
		geo.Europe: 5, geo.NorthAmerica: 4, geo.AsiaPacific: 2,
		geo.SouthAmerica: 1,
		// Ark's thin African presence: a ZA node and an East African one.
		geo.AfricaSouthern: 1,
		geo.AfricaEastern:  1,
	}
	var out []topology.ASN
	for _, r := range geo.AllRegions() {
		w := weights[r]
		if w == 0 {
			continue
		}
		count := 0
		for _, asn := range t.ASNs() {
			as := t.ASes[asn]
			if as.Region != r {
				continue
			}
			if as.Type != topology.ASEducation && as.Type != topology.ASFixedISP {
				continue
			}
			out = append(out, asn)
			count++
			if count >= w {
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > n && n > 0 {
		out = out[:n]
	}
	return out
}
