package netsim

import (
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
)

// mix folds any number of values into one 64-bit hash.
func mix(vals ...uint64) uint64 { return splitmix.Fold(0x8445d61a4e774912, vals...) }

// TraceHop is one responding (or silent) hop of a traceroute.
type TraceHop struct {
	TTL  int
	Addr netx.Addr // 0 for a silent hop ("*")
	RTT  float64   // milliseconds; 0 for silent hops

	// Ground-truth annotations. Measurement tools must NOT use these —
	// they re-derive ASN/IXP/location with their own (imperfect)
	// methods; tests use them as the oracle.
	TrueASN     topology.ASN
	TrueIXP     topology.IXPID // nonzero when the hop address is on an IXP LAN
	TrueLink    topology.LinkID
	TrueCountry string
	TrueCoord   geo.Coord
}

// Traceroute is the result of one TTL-limited probe sequence.
type Traceroute struct {
	SrcASN  topology.ASN
	DstASN  topology.ASN
	SrcAddr netx.Addr
	DstAddr netx.Addr
	Hops    []TraceHop
	Reached bool    // destination answered
	RTT     float64 // end-to-end RTT if reached
}

// Traceroute probes from a host in srcASN toward dst, returning the
// router-level path. Addressing follows operational practice: the far
// end of an IXP-fabric peering link answers from its IXP LAN interface
// address — the signal traIXroute-style detection relies on.
//
// The result is a pure function of (seed, src, dst, routing generation,
// failure epoch) and is memoized on that key; experiment drivers probe
// the same pairs repeatedly. Memoized results share their Hops slice, so
// callers must treat the Traceroute as read-only (all current consumers
// do — the wire layer copies hops into its own record format).
func (n *Net) Traceroute(srcASN topology.ASN, dst netx.Addr) Traceroute {
	memo := n.trMemoFor()
	key := trKey{src: srcASN, dst: dst}
	if v, ok := memo.m.Load(key); ok {
		return v.(Traceroute)
	}
	tr := n.tracerouteUncached(srcASN, dst)
	if n.router.Gen() == memo.gen && n.epoch.Load() == memo.epoch {
		// Only cache results whose inputs were stable across the whole
		// computation; a concurrent failure change just skips the store.
		memo.m.Store(key, tr)
	}
	return tr
}

// trMemoFor returns the Traceroute memo for the current (routing
// generation, failure epoch), replacing a stale one if needed.
func (n *Net) trMemoFor() *trMemoT {
	gen := n.router.Gen()
	ep := n.epoch.Load()
	for {
		m := n.trMemo.Load()
		if m != nil && m.gen == gen && m.epoch == ep {
			return m
		}
		fresh := &trMemoT{gen: gen, epoch: ep}
		if n.trMemo.CompareAndSwap(m, fresh) {
			return fresh
		}
	}
}

func (n *Net) tracerouteUncached(srcASN topology.ASN, dst netx.Addr) Traceroute {
	n.mu.RLock()
	defer n.mu.RUnlock()

	tr := Traceroute{
		SrcASN:  srcASN,
		SrcAddr: n.HostAddr(srcASN, 0),
		DstAddr: dst,
	}
	// Peering LANs are unrouted; probing one directly succeeds only when
	// the source's upstream sits on that fabric.
	if x, isIXP := n.ixpByLAN.Lookup(dst); isIXP {
		return n.tracerouteToIXPLAN(srcASN, dst, x)
	}
	// Anycast destinations resolve to the policy-nearest instance.
	anycastDst := false
	var dstASN topology.ASN
	if svc := n.anycastFor(dst); svc != nil {
		origin, okA := n.anycastOrigin(srcASN, svc)
		if !okA {
			return tr
		}
		dstASN = origin
		anycastDst = true
	} else {
		var ok bool
		dstASN, ok = n.addrIndex.Lookup(dst)
		if !ok {
			return tr
		}
	}
	tr.DstASN = dstASN

	path, reachable := n.router.Path(srcASN, dstASN)
	if !reachable {
		return tr
	}

	ttl := 0
	var oneWay float64 // accumulated one-way latency
	lossPass := 1.0

	emit := func(addr netx.Addr, asn topology.ASN, link topology.LinkID, ixp topology.IXPID, respondProb float64) {
		ttl++
		h := TraceHop{TTL: ttl, TrueASN: asn, TrueLink: link, TrueIXP: ixp}
		if as := n.topo.ASes[asn]; as != nil {
			h.TrueCountry = as.Country
			if c, okC := geo.Lookup(as.Country); okC {
				h.TrueCoord = c.Hub
			}
		}
		if ixp != 0 {
			x := n.topo.IXPs[ixp]
			h.TrueCountry = x.Country
			if c, okC := geo.Lookup(x.Country); okC {
				h.TrueCoord = c.Hub
			}
		}
		r := splitmix.Unit(mix(n.seed, uint64(tr.SrcAddr), uint64(dst), uint64(ttl), 0xa1))
		if r < respondProb*lossPass {
			h.Addr = addr
			jitter := 0.9 + 0.2*splitmix.Unit(mix(n.seed, uint64(addr), uint64(ttl), 0xb2))
			h.RTT = (2*oneWay + 1.0) * jitter
		}
		tr.Hops = append(tr.Hops, h)
	}

	// First hop: source AS's edge router.
	srcAS := n.topo.ASes[srcASN]
	oneWay += 0.5
	emit(n.RouterAddr(srcASN, 0), srcASN, 0, 0, routerRespondProb(srcAS))

	for i := 1; i < len(path.Hops); i++ {
		hop := path.Hops[i]
		l := n.topo.Link(hop.Link)
		lms, lloss, up := n.linkLatency(l)
		if !up {
			break // physically dead mid-path (transient during reconvergence)
		}
		oneWay += lms
		lossPass *= 1 - lloss

		as := n.topo.ASes[hop.ASN]

		// Ingress interface of the next AS. Over an IXP fabric the
		// far-end router answers from its LAN address. Entering a stub
		// customer from its provider, the point-to-point interface is
		// numbered from the PROVIDER's space (the upstream assigns the
		// /30) — the classic IP-to-AS mapping pitfall that keeps stub
		// networks invisible to hop-based topology mapping.
		switch {
		case l.Via != 0:
			x := n.topo.IXPs[l.Via]
			lanAddr := x.LAN.Nth(uint64(2 + memberIndex(x, hop.ASN)))
			emit(lanAddr, hop.ASN, hop.Link, l.Via, routerRespondProb(as))
		case l.Kind == topology.CustomerProvider && l.A == hop.ASN &&
			as != nil && as.Tier == topology.TierStub:
			addr := n.RouterAddr(l.B, 40+int(hop.ASN)%20)
			emit(addr, hop.ASN, hop.Link, 0, routerRespondProb(as))
		default:
			emit(n.RouterAddr(hop.ASN, 1+i), hop.ASN, hop.Link, 0, routerRespondProb(as))
		}

		// A backbone hop inside transit networks.
		if as != nil && as.Type == topology.ASTransit && i != len(path.Hops)-1 {
			oneWay += 0.8
			emit(n.RouterAddr(hop.ASN, 7+i), hop.ASN, 0, 0, routerRespondProb(as))
		}
	}

	// Destination host.
	dstAS := n.topo.ASes[dstASN]
	if dstAS != nil {
		oneWay += 0.5
		ttl++
		h := TraceHop{TTL: ttl, TrueASN: dstASN, TrueCountry: dstAS.Country}
		if c, okC := geo.Lookup(dstAS.Country); okC {
			h.TrueCoord = c.Hub
		}
		// Anycast service addresses answer like production services do;
		// unicast addresses answer per the owner's responsiveness.
		responds := n.addrResponds(dst, dstAS)
		if anycastDst {
			responds = splitmix.Unit(mix(n.seed, uint64(dst), 0xa7)) < 0.95
		}
		if responds {
			r := splitmix.Unit(mix(n.seed, uint64(tr.SrcAddr), uint64(dst), uint64(ttl), 0xd4))
			if r < lossPass {
				h.Addr = dst
				jitter := 0.9 + 0.2*splitmix.Unit(mix(n.seed, uint64(dst), uint64(ttl), 0xe5))
				h.RTT = (2*oneWay + 1.0) * jitter
				tr.Reached = true
				tr.RTT = h.RTT
			}
		}
		tr.Hops = append(tr.Hops, h)
	}
	return tr
}

// tracerouteToIXPLAN handles probing an IXP LAN address directly: the LAN
// is unrouted globally, so the probe only succeeds when the source's own
// upstream path happens to touch that fabric. Must hold n.mu (read or
// write).
func (n *Net) tracerouteToIXPLAN(srcASN topology.ASN, dst netx.Addr, x topology.IXPID) Traceroute {
	tr := Traceroute{SrcASN: srcASN, SrcAddr: n.HostAddr(srcASN, 0), DstAddr: dst}
	ixp := n.topo.IXPs[x]

	// Reachable only if the fabric sits on the probe's default-route
	// path: the source itself is a member, or the probe's traffic to
	// this (unrouted) destination exits via a provider that is. A
	// multihomed source load-shares defaults per destination, so only
	// one provider is tried per target — probing a LAN does not fan out
	// across every upstream.
	member := func(a topology.ASN) bool {
		for _, m := range ixp.Members {
			if m == a {
				return true
			}
		}
		return false
	}
	var providers []topology.ASN
	for _, lid := range n.topo.LinksOf(srcASN) {
		l := n.topo.Link(lid)
		if l.Kind == topology.CustomerProvider && l.A == srcASN {
			providers = append(providers, l.B)
		}
	}
	candidates := []topology.ASN{srcASN}
	if len(providers) > 0 {
		candidates = append(candidates, providers[splitmix.Pick(mix(n.seed, uint64(dst), 0x77), len(providers))])
	}
	for _, c := range candidates {
		if member(c) {
			ttl := 1
			tr.Hops = append(tr.Hops, TraceHop{
				TTL: ttl, Addr: n.RouterAddr(srcASN, 0), RTT: 1.2,
				TrueASN: srcASN, TrueCountry: n.topo.ASes[srcASN].Country,
			})
			tr.Hops = append(tr.Hops, TraceHop{
				TTL: ttl + 1, Addr: dst, RTT: 6.5, TrueASN: 0, TrueIXP: x,
				TrueCountry: ixp.Country,
			})
			tr.Reached = true
			tr.RTT = 6.5
			return tr
		}
	}
	return tr
}

func memberIndex(x *topology.IXP, a topology.ASN) int {
	for i, m := range x.Members {
		if m == a {
			return i
		}
	}
	return len(x.Members)
}

// routerRespondProb models ICMP generation policy by network type:
// mobile cores rate-limit aggressively; transit backbones respond.
func routerRespondProb(as *topology.AS) float64 {
	if as == nil {
		return 0.5
	}
	if as.Responsive == 0 {
		return 0.05 // dark network: routers drop ICMP too
	}
	switch as.Type {
	case topology.ASMobileCarrier:
		return 0.45
	case topology.ASTransit:
		return 0.92
	case topology.ASContent, topology.ASCloud:
		return 0.85
	default:
		return 0.8
	}
}

// addrResponds decides whether a specific address answers probes.
// Responsiveness is two-level, as in real address space: only some /24s
// are "live" (populated, not firewalled), and within a live /24 only
// some addresses answer. The AS's Responsive share is split between the
// two levels. This concentration is why single-sample scans (CAIDA/
// YARRP) miss networks that responsiveness-history hitlists (ANT) find:
// one random address per /24 usually lands on silence even inside a
// network that does have responsive hosts.
func (n *Net) addrResponds(a netx.Addr, as *topology.AS) bool {
	if as == nil || as.Responsive == 0 {
		return false
	}
	liveQ, rateR := liveSplit(as)
	p24 := uint64(a) >> 8
	if splitmix.Unit(mix(n.seed, p24, 0xf5)) >= liveQ {
		return false
	}
	return splitmix.Unit(mix(n.seed, uint64(a), 0xf6)) < rateR
}

// liveSplit maps an AS's responsiveness to (live-/24 share, per-address
// response rate inside a live /24).
func liveSplit(as *topology.AS) (liveQ, rateR float64) {
	switch as.Type {
	case topology.ASMobileCarrier:
		return 0.065, 0.35 // CGNAT pools: few gateways answer
	case topology.ASContent, topology.ASCloud:
		return 0.60, 0.70
	case topology.ASTransit:
		return 0.30, 0.50
	case topology.ASEducation:
		return 0.20, 0.30
	default:
		return 0.12, 0.25
	}
}

// AddrResponds exposes the per-address responsiveness oracle (used by
// hitlist construction, which models historical scanning campaigns).
func (n *Net) AddrResponds(a netx.Addr) bool {
	asn, ok := n.addrIndex.Lookup(a)
	if !ok {
		return false
	}
	return n.addrResponds(a, n.topo.ASes[asn])
}

// Ping measures RTT to dst; ok is false when unreachable or lost.
func (n *Net) Ping(srcASN topology.ASN, dst netx.Addr) (float64, bool) {
	tr := n.Traceroute(srcASN, dst)
	return tr.RTT, tr.Reached
}

// PathQuality returns the AS-to-AS round-trip latency and compound loss
// probability along the current forwarding path. ok is false when no
// path exists (or a link on it is physically dead mid-reconvergence).
// Results are a pure function of (routing generation, failure epoch,
// src, dst) and are memoized on that key — outage sweeps re-ask the same
// pairs for every event.
func (n *Net) PathQuality(src, dst topology.ASN) (rtt, loss float64, ok bool) {
	if src == dst {
		return 2.0, 0, true
	}
	memo := n.pqMemoFor()
	key := uint64(src)<<32 | uint64(dst)
	if memo != nil {
		if v, okM := memo.m.Load(key); okM {
			e := v.(pqVal)
			return e.rtt, e.loss, e.ok
		}
	}
	rtt, loss, ok = n.pathQualityUncached(src, dst)
	if memo != nil && n.router.Gen() == memo.gen && n.epoch.Load() == memo.epoch {
		// Only cache results whose inputs were stable across the whole
		// computation; a concurrent failure change just skips the store.
		memo.m.Store(key, pqVal{rtt: rtt, loss: loss, ok: ok})
	}
	return rtt, loss, ok
}

// pqMemoFor returns the PathQuality memo for the current (routing
// generation, failure epoch), replacing a stale one if needed.
func (n *Net) pqMemoFor() *pqMemoT {
	gen := n.router.Gen()
	ep := n.epoch.Load()
	for {
		m := n.pqMemo.Load()
		if m != nil && m.gen == gen && m.epoch == ep {
			return m
		}
		fresh := &pqMemoT{gen: gen, epoch: ep}
		if n.pqMemo.CompareAndSwap(m, fresh) {
			return fresh
		}
	}
}

func (n *Net) pathQualityUncached(src, dst topology.ASN) (rtt, loss float64, ok bool) {
	path, okPath := n.router.Path(src, dst)
	if !okPath {
		return 0, 1, false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	oneWay := 1.0
	pass := 1.0
	for i := 1; i < len(path.Hops); i++ {
		l := n.topo.Link(path.Hops[i].Link)
		ms, lloss, up := n.linkLatency(l)
		if !up {
			return 0, 1, false
		}
		oneWay += ms + 0.3
		pass *= 1 - lloss
	}
	return 2 * oneWay, 1 - pass, true
}

// LossBudget is the compound loss above which interactive transports
// effectively fail (timeouts dominate); the DNS and content layers use
// it to turn congestion into failures.
const LossBudget = 0.5

// RTTBetween returns the AS-to-AS round-trip latency along the current
// forwarding path. It reports ok=false when the path is down or so
// congested (compound loss above LossBudget) that transports time out —
// the over-subscribed-backup failure mode of Section 4.1.
func (n *Net) RTTBetween(src, dst topology.ASN) (float64, bool) {
	rtt, loss, ok := n.PathQuality(src, dst)
	if !ok || loss > LossBudget {
		return 0, false
	}
	return rtt, true
}
