package dnssim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/afrinet/observatory/internal/topology"
)

// This file is dnssim's one resolution path: each client has a chain
// that answers from the cache or runs the recursive leg its assignment
// dictates and then the authority leg from that resolver. Latency and
// reachability come from netsim only — no clocks, no unseeded
// randomness, so an answer is a pure function of (seed, topology,
// failure state, query).

// Query is one logical DNS question entering a chain.
type Query struct {
	// Client is the end-user network originating the question.
	Client topology.ASN
	// Domain is the name being resolved.
	Domain string
	// OriginCountry is the domain's home country (drives authoritative
	// placement, as in the legacy API).
	OriginCountry string
	// ECS asks the stub to attach an EDNS Client Subnet option, letting
	// anycast authorities localize for the *client* rather than for the
	// recursive resolver that fronts it.
	ECS bool
}

// Answer is a chain resolution outcome — the legacy Resolution plus the
// localization facts the dnsload driver aggregates.
type Answer struct {
	OK         bool
	FailReason string
	LatencyMs  float64

	// Assignment is the recursive resolver assignment the chain ran
	// under; ResolverAS is the concrete AS that served the recursive
	// step (anycast resolved to a site).
	Assignment Assignment
	ResolverAS topology.ASN
	// Auth is the authoritative placement (set even on failure once the
	// chain got that far).
	Auth AuthLocation

	// ServedASN / ServedCountry identify the replica whose address the
	// answer points at. For cloud-hosted authorities that is the anycast
	// site chosen for whoever the authority thinks is asking.
	ServedASN     topology.ASN
	ServedCountry string
	// Localized reports whether the served replica is the one the
	// *client* would be steered to — the quantity the ECS study compares
	// with and without client-subnet information.
	Localized bool
	// ECS echoes whether client-subnet was attached upstream.
	ECS bool

	// Chain records the steps the answer passed through, outermost
	// first, ">"-separated (e.g. "stub>cache>forwarder>authority").
	Chain string

	// Poisoned/PoisonBogon are set by on-path interference wrappers
	// (internal/outage); the chain itself never touches them.
	Poisoned    bool
	PoisonBogon bool
}

// Resolver answers DNS questions: a client's chain (ChainFor), or a
// wrapper around one such as outage.PoisonDNS.
type Resolver interface {
	Resolve(q Query) Answer
}

// ChainSpec returns the step names of a resolver kind's chain, the
// names Answer.Chain records.
func ChainSpec(kind ResolverKind) []string {
	switch kind {
	case ResolverLocalISP:
		return []string{"stub", "cache", "forwarder", "authority"}
	case ResolverOtherCountry:
		return []string{"stub", "cache", "hub", "authority"}
	default:
		return []string{"stub", "cache", "cloud", "authority"}
	}
}

// chain is one client's resolution path under its assignment. hop and
// full are the Answer.Chain records of an answer that stopped at the
// recursive step and of one that reached the authority.
type chain struct {
	s         *System
	asg       Assignment
	hop, full string
}

// ChainFor returns the client's chain: stub → cache → the recursive
// step its assignment dictates → authority. Chains are pure functions
// of the seed (the cache scopes its entries to the failure state
// internally), so they are memoized forever — cable cuts do not rebuild
// them.
func (s *System) ChainFor(client topology.ASN) Resolver {
	s.mu.RLock()
	c, ok := s.chains[client]
	s.mu.RUnlock()
	if ok {
		return c
	}
	asg := s.AssignmentFor(client)
	spec := ChainSpec(asg.Kind)
	c = &chain{s: s, asg: asg, hop: strings.Join(spec[:3], ">"), full: strings.Join(spec, ">")}
	s.mu.Lock()
	if prev, ok := s.chains[client]; ok {
		c = prev // first store wins: callers may compare chain pointers
	} else {
		s.chains[client] = c
	}
	s.mu.Unlock()
	return c
}

// Resolve answers from the cache, keyed by (client, domain, origin, ecs)
// and scoped to the current (gen, epoch) memo generation so a cable cut
// invalidates exactly the answers it could change; a miss runs the legs.
func (c *chain) Resolve(q Query) Answer {
	m := c.s.memoNow()
	key := answerKey{client: q.Client, domain: q.Domain, originCountry: q.OriginCountry, ecs: q.ECS}
	if v, ok := m.answers.Load(key); ok {
		m.hits.Add(1)
		return v.(Answer)
	}
	m.misses.Add(1)
	ans := c.legs(q, c.s.Authority(q.Domain, q.OriginCountry))
	if c.s.net.Router().Gen() == m.gen && c.s.net.Epoch() == m.epoch {
		// Store only when the failure state held for the whole
		// computation; otherwise the answer may mix epochs.
		m.answers.Store(key, ans)
	}
	return ans
}

// legs runs one resolution under the chain's assignment: the recursive
// leg from the client to its resolver (for a cloud assignment, the
// nearest reachable anycast site), then the authority leg from that
// resolver to auth.
func (c *chain) legs(q Query, auth AuthLocation) Answer {
	s := c.s
	ans := Answer{Assignment: c.asg, ECS: q.ECS, Chain: c.hop}
	serving := c.asg.ASN
	if c.asg.Kind == ResolverCloud {
		site, ok := s.AnycastSite(q.Client, serving)
		if !ok {
			// ResolverAS stays 0: no concrete instance answered.
			ans.FailReason = "no reachable anycast resolver instance"
			return ans
		}
		serving = site
	}
	ans.ResolverAS = serving
	rtt1, ok := s.net.RTTBetween(q.Client, serving)
	if !ok {
		ans.FailReason = fmt.Sprintf("resolver unreachable (AS%d)", serving)
		return ans
	}
	ans.Chain, ans.Auth = c.full, auth
	if auth.ASN == 0 {
		ans.FailReason = "no authoritative placement"
		return ans
	}
	rtt2, ok := s.net.RTTBetween(serving, auth.ASN)
	if !ok {
		ans.FailReason = fmt.Sprintf("authoritative unreachable (AS%d)", auth.ASN)
		return ans
	}
	ans.OK = true
	ans.LatencyMs = rtt2 + rtt1
	ans.ServedASN, ans.ServedCountry, ans.Localized = s.servedReplica(q, auth, serving)
	return ans
}

// servedReplica decides which replica of the authority's content the
// answer names, and whether that replica is the best one for the
// client. Unicast authorities have exactly one replica. Cloud-hosted
// authorities steer by the asking vantage: without ECS that is the
// recursive resolver (via), with ECS it is the client subnet — the
// localization gap the Section 5.2 study quantifies.
func (s *System) servedReplica(q Query, loc AuthLocation, via topology.ASN) (topology.ASN, string, bool) {
	if !loc.Cloud {
		return loc.ASN, loc.Country, true
	}
	view := via
	if q.ECS {
		view = q.Client
	}
	served, okServed := s.AnycastSite(view, loc.ASN)
	if !okServed {
		served = loc.ASN
	}
	best, okBest := s.AnycastSite(q.Client, loc.ASN)
	localized := okServed && okBest && served == best
	return served, s.CountryOf(served), localized
}

// chainMemo is the reachability-scoped cache generation: every entry in
// it was computed under the (routing gen, failure epoch) stamp it
// carries, and the whole generation is dropped — by pointer swap, not by
// walking maps — the first time a query observes a different stamp.
// Unrelated seed-pure memos (assignments, authority placements, chains)
// live outside it and survive every flap.
type chainMemo struct {
	gen, epoch uint64
	sites      sync.Map // siteKey -> siteVal
	answers    sync.Map // answerKey -> Answer
	hits       atomic.Uint64
	misses     atomic.Uint64
}

type siteKey struct {
	client, cloud topology.ASN
}

type siteVal struct {
	site topology.ASN
	ok   bool
}

type answerKey struct {
	client        topology.ASN
	domain        string
	originCountry string
	ecs           bool
}

// memoNow returns the memo generation for the current failure state,
// swapping in a fresh one when routing gen or failure epoch moved.
func (s *System) memoNow() *chainMemo {
	gen, epoch := s.net.Router().Gen(), s.net.Epoch()
	for {
		m := s.memo.Load()
		if m != nil && m.gen == gen && m.epoch == epoch {
			return m
		}
		fresh := &chainMemo{gen: gen, epoch: epoch}
		if s.memo.CompareAndSwap(m, fresh) {
			return fresh
		}
	}
}
