package dnssim

import (
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

// oraclePolicy is the pre-chain ResolveWithPolicy, moved here verbatim:
// it ran the recursive and authority legs by hand, beside the chain.
// ResolveWithPolicy now runs the chain's legs, and must match it on
// every field whatif reads and on the resolver and authority it chose.
func oraclePolicy(s *System, client topology.ASN, domain, originCountry string, forceLocalResolver, forceLocalAuth bool) Resolution {
	if !forceLocalResolver && !forceLocalAuth {
		return s.Resolve(client, domain, originCountry)
	}
	as := s.topo.ASes[client]
	if as == nil {
		return Resolution{FailReason: "unknown client"}
	}
	var res Resolution
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
		res.Resolver = Assignment{Kind: ResolverLocalISP, Country: as.Country, ASN: host}
		if res.Resolver.ASN == 0 {
			res.FailReason = "no in-country resolver host"
			return res
		}
		res.ResolverAS = res.Resolver.ASN
	} else {
		// Resolver as deployed today; only the authoritative moves.
		res.Resolver = s.AssignmentFor(client)
		res.ResolverAS = res.Resolver.ASN
		if res.Resolver.Kind == ResolverCloud {
			site, okSite := s.AnycastSite(client, res.Resolver.ASN)
			if !okSite {
				res.FailReason = "no reachable anycast resolver instance"
				return res
			}
			res.ResolverAS = site
		}
	}
	rtt1, ok := s.net.RTTBetween(client, res.ResolverAS)
	if !ok {
		res.FailReason = "resolver unreachable"
		return res
	}
	res.Auth = s.Authority(domain, originCountry)
	if forceLocalAuth {
		if host := s.inCountryResolverHost(originCountry, topology.ASN(len(domain))); host != 0 {
			res.Auth = AuthLocation{ASN: host, Country: originCountry}
		}
	}
	if res.Auth.ASN == 0 {
		res.FailReason = "no authoritative placement"
		return res
	}
	rtt2, ok := s.net.RTTBetween(res.ResolverAS, res.Auth.ASN)
	if !ok {
		res.FailReason = "authoritative unreachable"
		return res
	}
	res.OK = true
	res.LatencyMs = rtt1 + rtt2
	return res
}

// TestChainMatchesLegacyOracle is the 3-seed equivalence proof: the
// shimmed legacy Resolve and the chain API produce identical resolver
// assignments and resolutions, with the data plane intact and with half
// the cables cut, and ResolveWithPolicy picks what oraclePolicy picks
// under every policy.
func TestChainMatchesLegacyOracle(t *testing.T) {
	policies := [][2]bool{{true, false}, {false, true}, {true, true}}
	for _, seed := range []int64{1, 7, 42} {
		topo := topology.Generate(topology.Params{Seed: seed, Year: 2025})
		n := netsim.New(topo, bgp.New(topo), seed)
		s := New(n, seed)
		cables := topo.CableIDs()

		for _, cut := range []bool{false, true} {
			n.SetCablesCut(cables[:len(cables)/2], cut)
			clients, failed := 0, 0
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
						ans := s.ChainFor(asn).Resolve(Query{Client: asn, Domain: domain, OriginCountry: c.ISO2})
						if ans.Assignment != want.Resolver || ans.OK != want.OK || ans.LatencyMs != want.LatencyMs {
							t.Fatalf("seed %d: raw chain answer diverges for AS%d %s", seed, asn, domain)
						}
						if !want.OK {
							failed++
						}
						for _, pol := range policies {
							got := s.ResolveWithPolicy(asn, domain, c.ISO2, pol[0], pol[1])
							want := oraclePolicy(s, asn, domain, c.ISO2, pol[0], pol[1])
							if got.OK != want.OK || got.LatencyMs != want.LatencyMs || got.Resolver != want.Resolver || got.Auth != want.Auth {
								t.Fatalf("seed %d cut=%v policy %v: ResolveWithPolicy diverges from oracle for AS%d %s:\n got %+v\nwant %+v",
									seed, cut, pol, asn, domain, got, want)
							}
						}
					}
				}
			}
			if clients < 50 {
				t.Fatalf("seed %d: only %d client networks sampled", seed, clients)
			}
			if cut && failed == 0 {
				t.Fatalf("seed %d: no resolution failed with half the cables cut; failure paths untested", seed)
			}
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
}

func TestChainRecordsLinkNames(t *testing.T) {
	for _, c := range geo.AfricanCountries() {
		for _, asn := range testDNS.ClientNetworks(c.ISO2) {
			ans := testDNS.ChainFor(asn).Resolve(Query{Client: asn, Domain: domainName(c.ISO2, 0), OriginCountry: c.ISO2})
			if !ans.OK {
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
	ansBefore := before.Resolve(q)
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
	before.Resolve(q)
	hits1, misses1 := s.memo.Load().hits.Load(), s.memo.Load().misses.Load()
	if hits1 != 0 || misses1 != 1 {
		t.Fatalf("post-flap stats = (%d hits, %d misses), want (0, 1); pre-flap (%d, %d)", hits1, misses1, hits0, misses0)
	}
	ansAfter := before.Resolve(q)
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
	first := testDNS.ChainFor(asn).Resolve(q)
	second := testDNS.ChainFor(asn).Resolve(q)
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
				plain := testDNS.ChainFor(asn).Resolve(q)
				q.ECS = true
				ecs := testDNS.ChainFor(asn).Resolve(q)
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
