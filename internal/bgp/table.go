package bgp

import (
	"sort"

	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/topology"
)

// RoutedTable is the global BGP table view (the AS6447/potaroo analogue):
// every prefix an AS originates, with longest-prefix-match lookup.
// IXP peering LANs are deliberately absent — operators do not advertise
// them (RFC 7454 practice), which is the root cause of the poor IXP
// coverage in the paper's Table 1.
type RoutedTable struct {
	trie     netx.Trie[topology.ASN]
	prefixes []RoutedPrefix
}

// RoutedPrefix is one table entry.
type RoutedPrefix struct {
	Prefix netx.Prefix
	Origin topology.ASN
}

// BuildRoutedTable extracts the advertised-prefix table from a topology.
func BuildRoutedTable(t *topology.Topology) *RoutedTable {
	rt := &RoutedTable{}
	for _, asn := range t.ASNs() {
		as := t.ASes[asn]
		if as.Type == topology.ASIXPRouteServer {
			continue // peering LANs are not advertised
		}
		for _, p := range as.Prefixes {
			rt.trie.Insert(p, asn)
			rt.prefixes = append(rt.prefixes, RoutedPrefix{Prefix: p, Origin: asn})
		}
	}
	sort.Slice(rt.prefixes, func(i, j int) bool {
		a, b := rt.prefixes[i].Prefix, rt.prefixes[j].Prefix
		if a.Base() != b.Base() {
			return a.Base() < b.Base()
		}
		return a.Bits() < b.Bits()
	})
	return rt
}

// Origin returns the origin AS of the longest matching advertised prefix.
func (rt *RoutedTable) Origin(a netx.Addr) (topology.ASN, bool) {
	return rt.trie.Lookup(a)
}

// Len returns the number of advertised prefixes.
func (rt *RoutedTable) Len() int { return len(rt.prefixes) }

// Slash24s enumerates every routed /24 (the CAIDA topology target set).
func (rt *RoutedTable) Slash24s() []netx.Prefix {
	var out []netx.Prefix
	seen := make(map[netx.Addr]bool)
	for _, rp := range rt.prefixes {
		p := rp.Prefix
		if p.Bits() > 24 {
			p24 := netx.MakePrefix(p.Base(), 24)
			if !seen[p24.Base()] {
				seen[p24.Base()] = true
				out = append(out, p24)
			}
			continue
		}
		for _, s := range p.Subnets(24, 0) {
			if !seen[s.Base()] {
				seen[s.Base()] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base() < out[j].Base() })
	return out
}
