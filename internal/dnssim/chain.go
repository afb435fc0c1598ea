package dnssim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/afrinet/observatory/internal/topology"
)

// This file is the PR 10 chain API: dnssim's resolution path rebuilt as
// a stack of named, registered links in the secDNS wrapper idiom. Each
// link implements Resolver, delegates to the next link with depth-1,
// and draws latency/reachability from netsim only — no clocks, no
// unseeded randomness, so a chain answer is a pure function of
// (seed, topology, failure state, query).

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
	// Via is the network the question is currently being asked from.
	// Zero means "from the client"; recursive links set it to their
	// serving AS before delegating, so the authority link measures the
	// correct last leg.
	Via topology.ASN
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

	// Chain records the links the answer passed through, outermost
	// first, ">"-separated (e.g. "stub>cache>forwarder>authority").
	Chain string

	// Poisoned/PoisonBogon are set by on-path interference wrappers
	// (internal/outage); the base links never touch them.
	Poisoned    bool
	PoisonBogon bool
}

// ErrLoopDetected is returned when delegation exhausts its depth budget,
// indicating a mis-built (cyclic) chain.
var ErrLoopDetected = errors.New("dnssim: chain loop detected (depth exhausted)")

// DefaultDepth is the delegation budget callers should pass to a
// canonical chain's Resolve; it is far deeper than any built-in chain.
const DefaultDepth = 64

// Resolver is one link in a resolution chain. Implementations must
// return ErrLoopDetected when depth goes negative and must delegate
// downstream with depth-1.
type Resolver interface {
	// Name identifies the link type (the registry key it was built from).
	Name() string
	// Resolve answers the query, consuming one unit of depth.
	Resolve(q Query, depth int) (Answer, error)
}

// LinkConfig parameterizes a link constructor for one client chain.
type LinkConfig struct {
	// Client is the network the chain is built for.
	Client topology.ASN
	// Assignment is the client's recursive resolver assignment; links
	// that model the recursive step read their target from it.
	Assignment Assignment
}

// Constructor builds a link bound to a system, wrapping next (nil for
// the terminal link).
type Constructor func(s *System, cfg LinkConfig, next Resolver) Resolver

var (
	linkMu   sync.RWMutex
	linkCtor = map[string]Constructor{}
)

// Register adds a named link constructor. Registering a duplicate name
// panics: link names are part of the observable Chain strings, so a
// silent override would corrupt recorded data.
func Register(name string, ctor Constructor) {
	linkMu.Lock()
	defer linkMu.Unlock()
	if _, dup := linkCtor[name]; dup {
		panic(fmt.Sprintf("dnssim: link %q registered twice", name))
	}
	linkCtor[name] = ctor
}

// NewLink instantiates one registered link.
func NewLink(name string, s *System, cfg LinkConfig, next Resolver) (Resolver, error) {
	linkMu.RLock()
	ctor, ok := linkCtor[name]
	linkMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dnssim: unknown link %q", name)
	}
	return ctor(s, cfg, next), nil
}

// BuildChain stacks registered links outermost-first: the first name is
// the entry point, the last is the terminal link.
func BuildChain(s *System, cfg LinkConfig, names ...string) (Resolver, error) {
	if len(names) == 0 {
		return nil, errors.New("dnssim: empty chain")
	}
	var next Resolver
	for i := len(names) - 1; i >= 0; i-- {
		link, err := NewLink(names[i], s, cfg, next)
		if err != nil {
			return nil, err
		}
		next = link
	}
	return next, nil
}

// ChainSpec returns the canonical link stack for a resolver kind.
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

// ChainFor returns the client's canonical chain: stub → cache → the
// recursive step its assignment dictates → authority. Chains are pure
// functions of the seed (the cache link scopes its entries to the
// failure state internally), so they are memoized forever — cable cuts
// do not rebuild them.
func (s *System) ChainFor(client topology.ASN) Resolver {
	s.mu.RLock()
	c, ok := s.chains[client]
	s.mu.RUnlock()
	if ok {
		return c
	}
	asg := s.AssignmentFor(client)
	c, err := BuildChain(s, LinkConfig{Client: client, Assignment: asg}, ChainSpec(asg.Kind)...)
	if err != nil {
		// Canonical specs only use built-in links; this is unreachable
		// unless init registration was bypassed.
		panic(err)
	}
	s.mu.Lock()
	if prev, ok := s.chains[client]; ok {
		c = prev // first store wins: callers may compare chain pointers
	} else {
		s.chains[client] = c
	}
	s.mu.Unlock()
	return c
}

// chainMemo is the reachability-scoped cache generation: every entry in
// it was computed under the (routing gen, failure epoch) stamp it
// carries, and the whole generation is dropped — by pointer swap, not by
// walking maps — the first time a query observes a different stamp.
// Unrelated seed-pure memos (assignments, authority placements, chain
// structure) live outside it and survive every flap.
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

func init() {
	Register("stub", newStubLink)
	Register("cache", newCacheLink)
	Register("forwarder", func(s *System, cfg LinkConfig, next Resolver) Resolver {
		return &recursiveLink{name: "forwarder", s: s, cfg: cfg, next: next}
	})
	Register("hub", func(s *System, cfg LinkConfig, next Resolver) Resolver {
		return &recursiveLink{name: "hub", s: s, cfg: cfg, next: next}
	})
	Register("cloud", newCloudLink)
	Register("authority", newAuthorityLink)
}

// prependChain stamps a link name onto an answer's chain record.
func prependChain(name string, ans *Answer) {
	if ans.Chain == "" {
		ans.Chain = name
	} else {
		ans.Chain = name + ">" + ans.Chain
	}
}

// stubLink is the client-side entry point: it normalizes the query
// (Via defaults to the client) and stamps the ECS flag into the answer.
type stubLink struct {
	s    *System
	cfg  LinkConfig
	next Resolver
}

func newStubLink(s *System, cfg LinkConfig, next Resolver) Resolver {
	return &stubLink{s: s, cfg: cfg, next: next}
}

func (l *stubLink) Name() string { return "stub" }

func (l *stubLink) Resolve(q Query, depth int) (Answer, error) {
	if depth < 0 {
		return Answer{}, ErrLoopDetected
	}
	if l.next == nil {
		return Answer{}, errors.New("dnssim: stub link has no upstream")
	}
	if q.Via == 0 {
		q.Via = q.Client
	}
	ans, err := l.next.Resolve(q, depth-1)
	if err != nil {
		return Answer{}, err
	}
	ans.ECS = q.ECS
	prependChain("stub", &ans)
	return ans, nil
}

// cacheLink memoizes whole-chain answers keyed by (client, domain,
// origin, ecs), scoped to the current (gen, epoch) memo generation so a
// cable cut invalidates exactly the answers it could change.
type cacheLink struct {
	s    *System
	cfg  LinkConfig
	next Resolver
}

func newCacheLink(s *System, cfg LinkConfig, next Resolver) Resolver {
	return &cacheLink{s: s, cfg: cfg, next: next}
}

func (l *cacheLink) Name() string { return "cache" }

func (l *cacheLink) Resolve(q Query, depth int) (Answer, error) {
	if depth < 0 {
		return Answer{}, ErrLoopDetected
	}
	if l.next == nil {
		return Answer{}, errors.New("dnssim: cache link has no upstream")
	}
	m := l.s.memoNow()
	key := answerKey{client: q.Client, domain: q.Domain, originCountry: q.OriginCountry, ecs: q.ECS}
	if v, ok := m.answers.Load(key); ok {
		m.hits.Add(1)
		return v.(Answer), nil
	}
	m.misses.Add(1)
	ans, err := l.next.Resolve(q, depth-1)
	if err != nil {
		return Answer{}, err
	}
	prependChain("cache", &ans)
	if l.s.net.Router().Gen() == m.gen && l.s.net.Epoch() == m.epoch {
		// Store only when the failure state held for the whole
		// computation; otherwise the answer may mix epochs.
		m.answers.Store(key, ans)
	}
	return ans, nil
}

// recursiveLink models the recursive-resolver hop for unicast
// assignments: "forwarder" for an in-country resolver, "hub" for one
// outsourced to another country. The client↔resolver leg is measured
// here; the resolver↔authority leg belongs to the authority link, which
// sees Via rewritten to the serving AS.
type recursiveLink struct {
	name string
	s    *System
	cfg  LinkConfig
	next Resolver
}

func (l *recursiveLink) Name() string { return l.name }

func (l *recursiveLink) Resolve(q Query, depth int) (Answer, error) {
	if depth < 0 {
		return Answer{}, ErrLoopDetected
	}
	if l.next == nil {
		return Answer{}, errors.New("dnssim: " + l.name + " link has no upstream")
	}
	asg := l.cfg.Assignment
	serving := asg.ASN
	rtt1, ok := l.s.net.RTTBetween(q.Client, serving)
	if !ok {
		ans := Answer{
			FailReason: fmt.Sprintf("resolver unreachable (AS%d)", serving),
			Assignment: asg,
			ResolverAS: serving,
			Chain:      l.name,
		}
		return ans, nil
	}
	q.Via = serving
	up, err := l.next.Resolve(q, depth-1)
	if err != nil {
		return Answer{}, err
	}
	up.Assignment = asg
	up.ResolverAS = serving
	if up.OK {
		up.LatencyMs += rtt1
	}
	prependChain(l.name, &up)
	return up, nil
}

// cloudLink models the anycast public-resolver hop: the client is
// routed to the nearest reachable instance of its assigned cloud
// resolver, and that site becomes the vantage the authority sees.
type cloudLink struct {
	s    *System
	cfg  LinkConfig
	next Resolver
}

func newCloudLink(s *System, cfg LinkConfig, next Resolver) Resolver {
	return &cloudLink{s: s, cfg: cfg, next: next}
}

func (l *cloudLink) Name() string { return "cloud" }

func (l *cloudLink) Resolve(q Query, depth int) (Answer, error) {
	if depth < 0 {
		return Answer{}, ErrLoopDetected
	}
	if l.next == nil {
		return Answer{}, errors.New("dnssim: cloud link has no upstream")
	}
	asg := l.cfg.Assignment
	site, okSite := l.s.AnycastSite(q.Client, asg.ASN)
	if !okSite {
		// ResolverAS stays 0: no concrete instance answered, matching
		// the legacy failure shape.
		return Answer{
			FailReason: "no reachable anycast resolver instance",
			Assignment: asg,
			Chain:      "cloud",
		}, nil
	}
	rtt1, ok := l.s.net.RTTBetween(q.Client, site)
	if !ok {
		return Answer{
			FailReason: fmt.Sprintf("resolver unreachable (AS%d)", site),
			Assignment: asg,
			ResolverAS: site,
			Chain:      "cloud",
		}, nil
	}
	q.Via = site
	up, err := l.next.Resolve(q, depth-1)
	if err != nil {
		return Answer{}, err
	}
	up.Assignment = asg
	up.ResolverAS = site
	if up.OK {
		up.LatencyMs += rtt1
	}
	prependChain("cloud", &up)
	return up, nil
}

// authorityLink terminates a chain: it places the domain's authoritative
// servers, measures the resolver↔authority leg from Via, and decides
// which replica the answer points the client at.
type authorityLink struct {
	s   *System
	cfg LinkConfig
}

func newAuthorityLink(s *System, cfg LinkConfig, next Resolver) Resolver {
	_ = next // terminal link
	return &authorityLink{s: s, cfg: cfg}
}

func (l *authorityLink) Name() string { return "authority" }

func (l *authorityLink) Resolve(q Query, depth int) (Answer, error) {
	if depth < 0 {
		return Answer{}, ErrLoopDetected
	}
	via := q.Via
	if via == 0 {
		via = q.Client
	}
	ans := Answer{Chain: "authority"}
	loc := l.s.Authority(q.Domain, q.OriginCountry)
	ans.Auth = loc
	if loc.ASN == 0 {
		ans.FailReason = "no authoritative placement"
		return ans, nil
	}
	rtt2, ok := l.s.net.RTTBetween(via, loc.ASN)
	if !ok {
		ans.FailReason = fmt.Sprintf("authoritative unreachable (AS%d)", loc.ASN)
		return ans, nil
	}
	ans.OK = true
	ans.LatencyMs = rtt2
	ans.ServedASN, ans.ServedCountry, ans.Localized = l.servedReplica(q, loc, via)
	return ans, nil
}

// servedReplica decides which replica of the authority's content the
// answer names, and whether that replica is the best one for the
// client. Unicast authorities have exactly one replica. Cloud-hosted
// authorities steer by the asking vantage: without ECS that is the
// recursive resolver (Via), with ECS it is the client subnet — the
// localization gap the Section 5.2 study quantifies.
func (l *authorityLink) servedReplica(q Query, loc AuthLocation, via topology.ASN) (topology.ASN, string, bool) {
	if !loc.Cloud {
		return loc.ASN, loc.Country, true
	}
	view := via
	if q.ECS {
		view = q.Client
	}
	served, okServed := l.s.AnycastSite(view, loc.ASN)
	if !okServed {
		served = loc.ASN
	}
	best, okBest := l.s.AnycastSite(q.Client, loc.ASN)
	localized := okServed && okBest && served == best
	return served, l.s.CountryOf(served), localized
}
