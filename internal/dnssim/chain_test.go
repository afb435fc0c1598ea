package dnssim

import (
	"errors"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/topology"
)

// oracleResolve is an independent reimplementation of the pre-chain
// Resolve (the exact control flow dnssim.go shipped before PR 10),
// written against only the seed-pure accessors. The chain refactor is
// correct iff Resolve — now a shim over ChainFor — matches it on every
// input.
func oracleResolve(s *System, client topology.ASN, domain, originCountry string) Resolution {
	var res Resolution
	r := s.AssignmentFor(client)
	res.Resolver = r
	serving := r.ASN
	if r.Kind == ResolverCloud {
		site, okSite := s.AnycastSite(client, r.ASN)
		if !okSite {
			res.FailReason = "no reachable anycast resolver instance"
			return res
		}
		serving = site
	}
	res.ResolverAS = serving
	rtt1, ok := s.net.RTTBetween(client, serving)
	if !ok {
		res.FailReason = "resolver unreachable (AS" + itoa(uint64(serving)) + ")"
		return res
	}
	res.Auth = s.Authority(domain, originCountry)
	if res.Auth.ASN == 0 {
		res.FailReason = "no authoritative placement"
		return res
	}
	rtt2, ok := s.net.RTTBetween(serving, res.Auth.ASN)
	if !ok {
		res.FailReason = "authoritative unreachable (AS" + itoa(uint64(res.Auth.ASN)) + ")"
		return res
	}
	res.OK = true
	res.LatencyMs = rtt1 + rtt2
	return res
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestChainMatchesLegacyOracle is the 3-seed equivalence proof: the
// shimmed legacy Resolve and the chain API produce identical resolver
// assignments and resolutions.
func TestChainMatchesLegacyOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		topo := topology.Generate(topology.Params{Seed: seed, Year: 2025})
		n := netsim.New(topo, bgp.New(topo), seed)
		s := New(n, seed)

		clients := 0
		for _, c := range geo.AfricanCountries() {
			for _, asn := range s.ClientNetworks(c.ISO2) {
				if clients >= 120 {
					break
				}
				clients++
				for i := 0; i < 3; i++ {
					domain := domainName(c.ISO2, i)
					want := oracleResolve(s, asn, domain, c.ISO2)
					got := s.Resolve(asn, domain, c.ISO2)
					if got != want {
						t.Fatalf("seed %d: chain Resolve diverges from oracle for AS%d %s:\n got %+v\nwant %+v",
							seed, asn, domain, got, want)
					}
					ans, err := s.ChainFor(asn).Resolve(Query{Client: asn, Domain: domain, OriginCountry: c.ISO2}, DefaultDepth)
					if err != nil {
						t.Fatalf("seed %d: chain error: %v", seed, err)
					}
					if ans.Assignment != want.Resolver || ans.OK != want.OK || ans.LatencyMs != want.LatencyMs {
						t.Fatalf("seed %d: raw chain answer diverges for AS%d %s", seed, asn, domain)
					}
				}
			}
		}
		if clients < 50 {
			t.Fatalf("seed %d: only %d client networks sampled", seed, clients)
		}
	}
}

func TestChainSpecShapes(t *testing.T) {
	cases := map[ResolverKind][]string{
		ResolverLocalISP:     {"stub", "cache", "forwarder", "authority"},
		ResolverOtherCountry: {"stub", "cache", "hub", "authority"},
		ResolverCloud:        {"stub", "cache", "cloud", "authority"},
	}
	for kind, want := range cases {
		got := ChainSpec(kind)
		if strings.Join(got, ">") != strings.Join(want, ">") {
			t.Fatalf("ChainSpec(%v) = %v, want %v", kind, got, want)
		}
	}
	for _, name := range []string{"stub", "cache", "forwarder", "hub", "cloud", "authority"} {
		if _, found := linkCtor[name]; !found {
			t.Fatalf("built-in link %q not registered", name)
		}
	}
}

func TestChainRecordsLinkNames(t *testing.T) {
	for _, c := range geo.AfricanCountries() {
		for _, asn := range testDNS.ClientNetworks(c.ISO2) {
			ans, err := testDNS.ChainFor(asn).Resolve(Query{Client: asn, Domain: domainName(c.ISO2, 0), OriginCountry: c.ISO2}, DefaultDepth)
			if err != nil || !ans.OK {
				continue
			}
			want := strings.Join(ChainSpec(testDNS.AssignmentFor(asn).Kind), ">")
			if ans.Chain != want {
				t.Fatalf("AS%d chain string %q, want %q", asn, ans.Chain, want)
			}
			return // one OK answer per shape family is plenty; loop finds the first
		}
	}
	t.Fatal("no successful resolution found")
}

func TestChainDepthExhaustionIsLoopError(t *testing.T) {
	asn := testDNS.ClientNetworks("ZA")[0]
	q := Query{Client: asn, Domain: domainName("ZA", 0), OriginCountry: "ZA"}
	// The canonical chain is 4 links; a depth budget of 1 must trip the
	// loop detector partway down, never panic or mis-resolve.
	if _, err := testDNS.ChainFor(asn).Resolve(q, 1); !errors.Is(err, ErrLoopDetected) {
		t.Fatalf("depth 1 gave err=%v, want ErrLoopDetected", err)
	}
	if _, err := testDNS.ChainFor(asn).Resolve(q, DefaultDepth); err != nil {
		t.Fatalf("default depth errored: %v", err)
	}
}

func TestBuildChainStacksCustomLinks(t *testing.T) {
	asn := testDNS.ClientNetworks("NG")[0]
	asg := testDNS.AssignmentFor(asn)
	// A hand-built chain that skips the cache: same answer, different
	// chain string — the composability the registry exists for.
	names := append([]string{}, ChainSpec(asg.Kind)...)
	bare := append([]string{names[0]}, names[2:]...) // drop "cache"
	chain, err := BuildChain(testDNS, LinkConfig{Client: asn, Assignment: asg}, bare...)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Client: asn, Domain: domainName("NG", 1), OriginCountry: "NG"}
	got, err := chain.Resolve(q, DefaultDepth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testDNS.ChainFor(asn).Resolve(q, DefaultDepth)
	if err != nil {
		t.Fatal(err)
	}
	if got.OK != want.OK || got.LatencyMs != want.LatencyMs || got.Assignment != want.Assignment {
		t.Fatalf("cache-free chain diverges: got %+v want %+v", got, want)
	}
	if got.Chain == want.Chain {
		t.Fatalf("chain strings should differ, both %q", got.Chain)
	}
	if _, err := BuildChain(testDNS, LinkConfig{Client: asn}, "no-such-link"); err == nil {
		t.Fatal("unknown link name should error")
	}
	if _, err := BuildChain(testDNS, LinkConfig{Client: asn}); err == nil {
		t.Fatal("empty chain should error")
	}
}

// TestChainSurvivesLinkFlap is the memo-scoping fix: chains and
// assignments are seed-pure, so a cable flap must not rebuild them —
// only the (gen, epoch)-stamped answer/site caches roll over.
func TestChainSurvivesLinkFlap(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	n := netsim.New(topo, bgp.New(topo), 7)
	s := New(n, 7)

	asn := s.ClientNetworks("KE")[0]
	before := s.ChainFor(asn)
	asgBefore := s.AssignmentFor(asn)
	q := Query{Client: asn, Domain: domainName("KE", 2), OriginCountry: "KE"}
	ansBefore, err := before.Resolve(q, DefaultDepth)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := s.memo.Load().hits.Load(), s.memo.Load().misses.Load()
	if misses0 == 0 {
		t.Fatal("first resolution should be a cache miss")
	}

	// Flap every cable: failure epoch moves, routing gen moves.
	n.SetCablesCut(topo.CableIDs(), true)
	n.SetCablesCut(topo.CableIDs(), false)

	if after := s.ChainFor(asn); after != before {
		t.Fatal("chain was rebuilt by an unrelated link flap; chains must be seed-pure")
	}
	if s.AssignmentFor(asn) != asgBefore {
		t.Fatal("assignment changed across flap")
	}
	// The answer cache rolled to a fresh (gen, epoch) generation: the
	// same query misses once, then hits.
	if _, err := before.Resolve(q, DefaultDepth); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := s.memo.Load().hits.Load(), s.memo.Load().misses.Load()
	if hits1 != 0 || misses1 != 1 {
		t.Fatalf("post-flap stats = (%d hits, %d misses), want (0, 1); pre-flap (%d, %d)", hits1, misses1, hits0, misses0)
	}
	ansAfter, err := before.Resolve(q, DefaultDepth)
	if err != nil {
		t.Fatal(err)
	}
	if hits2 := s.memo.Load().hits.Load(); hits2 != 1 {
		t.Fatalf("repeat query should hit the cache, stats hits=%d", hits2)
	}
	if ansAfter != ansBefore {
		t.Fatalf("restored plane must reproduce the original answer:\n before %+v\n after  %+v", ansBefore, ansAfter)
	}
}

func TestCacheHitReturnsIdenticalAnswer(t *testing.T) {
	asn := testDNS.ClientNetworks("EG")[0]
	q := Query{Client: asn, Domain: domainName("EG", 3), OriginCountry: "EG"}
	first, err := testDNS.ChainFor(asn).Resolve(q, DefaultDepth)
	if err != nil {
		t.Fatal(err)
	}
	second, err := testDNS.ChainFor(asn).Resolve(q, DefaultDepth)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cache hit changed the answer:\n first  %+v\n second %+v", first, second)
	}
}

func TestECSQueriesAreSeparatelyKeyed(t *testing.T) {
	found := false
	for _, c := range geo.AfricanCountries() {
		for _, asn := range testDNS.ClientNetworks(c.ISO2) {
			for i := 0; i < 4; i++ {
				q := Query{Client: asn, Domain: domainName(c.ISO2, i), OriginCountry: c.ISO2}
				plain, err := testDNS.ChainFor(asn).Resolve(q, DefaultDepth)
				if err != nil {
					t.Fatal(err)
				}
				q.ECS = true
				ecs, err := testDNS.ChainFor(asn).Resolve(q, DefaultDepth)
				if err != nil {
					t.Fatal(err)
				}
				if !plain.OK || !ecs.OK {
					continue
				}
				if plain.ECS || !ecs.ECS {
					t.Fatalf("ECS flag not echoed: plain=%v ecs=%v", plain.ECS, ecs.ECS)
				}
				// For a cloud-hosted authority queried through a remote
				// resolver, ECS can change the served replica; at minimum
				// ECS answers must always be localized to the client.
				if ecs.Auth.Cloud && !ecs.Localized {
					t.Fatalf("ECS answer not localized: %+v", ecs)
				}
				if ecs.Auth.Cloud {
					found = true
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no cloud-hosted authority sampled; test vacuous")
	}
}
