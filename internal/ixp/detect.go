// Package ixp implements IXP-related measurement methods: traIXroute-
// style detection of exchange crossings in traceroutes (matching hop
// addresses against directory peering LANs, with a membership heuristic
// as fallback) and the greedy set-cover vantage selection the paper's
// footnote 1 uses to cover all African exchanges with a minimal ASN set.
package ixp

import (
	"sort"

	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/topology"
)

// Detector finds IXP crossings in traceroutes using directory data only
// (no simulator ground truth).
type Detector struct {
	lans    netx.Trie[topology.IXPID]
	members map[topology.IXPID]map[topology.ASN]bool
	names   map[topology.IXPID]string
}

// NewDetector indexes the exchange directory.
func NewDetector(dir []registry.IXPRecord) *Detector {
	d := &Detector{
		members: make(map[topology.IXPID]map[topology.ASN]bool),
		names:   make(map[topology.IXPID]string),
	}
	for _, rec := range dir {
		d.lans.Insert(rec.LAN, rec.ID)
		d.names[rec.ID] = rec.Name
		m := make(map[topology.ASN]bool, len(rec.Members))
		for _, a := range rec.Members {
			m[a] = true
		}
		d.members[rec.ID] = m
	}
	return d
}

// Crossing is one detected exchange crossing.
type Crossing struct {
	IXP    topology.IXPID
	Name   string
	HopTTL int
	// Strong is true for a LAN-address match (traIXroute's highest-
	// confidence rule); false for the membership-only inference.
	Strong bool
}

// Detect returns the crossings found in one traceroute, using (1) hop
// addresses inside a known peering LAN, then (2) consecutive responding
// hops whose origin ASes share exactly one exchange.
func (d *Detector) Detect(tr netsim.Traceroute, origin func(netx.Addr) (topology.ASN, bool)) []Crossing {
	var out []Crossing
	seen := map[topology.IXPID]bool{}

	// Rule 1: peering-LAN address on path.
	for _, h := range tr.Hops {
		if h.Addr == 0 {
			continue
		}
		if id, ok := d.lans.Lookup(h.Addr); ok && !seen[id] {
			seen[id] = true
			out = append(out, Crossing{IXP: id, Name: d.names[id], HopTTL: h.TTL, Strong: true})
		}
	}

	// Rule 2: adjacent hops in two ASes that share exactly one fabric.
	if origin != nil {
		var prevASN topology.ASN
		var prevTTL int
		for _, h := range tr.Hops {
			if h.Addr == 0 {
				continue
			}
			asn, ok := origin(h.Addr)
			if !ok {
				continue
			}
			if prevASN != 0 && asn != prevASN {
				if shared := d.sharedIXPs(prevASN, asn); len(shared) == 1 && !seen[shared[0]] {
					seen[shared[0]] = true
					out = append(out, Crossing{IXP: shared[0], Name: d.names[shared[0]], HopTTL: prevTTL, Strong: false})
				}
			}
			prevASN, prevTTL = asn, h.TTL
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HopTTL < out[j].HopTTL })
	return out
}

func (d *Detector) sharedIXPs(a, b topology.ASN) []topology.IXPID {
	var out []topology.IXPID
	for id, m := range d.members {
		if m[a] && m[b] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
