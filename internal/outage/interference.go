package outage

// interference.go models deliberate, policy-driven interference — the
// censorship layer the websteps experiment family measures, as opposed
// to the accidental outages the rest of this package generates. A
// country's rule says which mechanisms its network applies (DNS
// poisoning, SNI-triggered resets, blockpage substitution, token-bucket
// throttling), to which fraction of domains, and through which resolver
// classes poisoning is visible. Everything is a pure function of the
// seed and the arguments — splitmix hashing, no wall clock, no
// math/rand — so measurement sweeps are replayable, and activation can
// be gated per country so the chaos harness can open and close
// interference windows on its scheduled timeline.

import (
	"sort"
	"sync"

	"github.com/afrinet/observatory/internal/splitmix"
)

// InterferenceRule is one country's interference policy.
type InterferenceRule struct {
	Country string
	// DNSPoison makes in-scope resolvers answer wrongly for targeted
	// domains; PoisonBogon picks never-routed answers (connection black
	// hole) over redirection to a censor-operated host (blockpage).
	DNSPoison   bool
	PoisonBogon bool
	// SNIReset injects a TCP RST when a targeted name shows up in a TLS
	// ClientHello.
	SNIReset bool
	// Blockpage substitutes the censor's page for targeted cleartext
	// HTTP responses.
	Blockpage bool
	// ThrottleBytesPerMs caps targeted transfers to this token-bucket
	// rate after ThrottleBurstBytes; 0 means no throttling.
	ThrottleBytesPerMs float64
	ThrottleBurstBytes int64
	// DomainFraction is the share of a country's domains the policy
	// targets (deterministic per-domain hash threshold). 0 targets none.
	DomainFraction float64
	// ResolverClasses limits DNS poisoning to queries through these
	// resolver classes (dnssim kind strings). Empty means the default:
	// "same-country" and "other-country" — on-path resolvers; cloud
	// resolvers answer truthfully, as does the control.
	ResolverClasses []string
}

// Interference is a set of per-country rules plus their activation
// state. Queries are read-mostly and safe for concurrent measurement
// sweeps; activation flips are serialized writes (the chaos harness
// opens and closes windows between rounds).
type Interference struct {
	seed uint64

	mu    sync.RWMutex
	rules map[string]InterferenceRule
	// windowed: rules apply only while their country is in the active
	// set. Non-windowed (the default): every rule is always live.
	windowed bool
	active   map[string]bool
}

// NewInterference builds an empty, always-active policy set.
func NewInterference(seed int64) *Interference {
	return &Interference{
		seed:   uint64(seed),
		rules:  make(map[string]InterferenceRule),
		active: make(map[string]bool),
	}
}

// SetRule installs or replaces one country's rule.
func (p *Interference) SetRule(r InterferenceRule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules[r.Country] = r
}

// Rules returns the installed rules sorted by country.
func (p *Interference) Rules() []InterferenceRule {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]InterferenceRule, 0, len(p.rules))
	for _, r := range p.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// SetWindowed switches between always-active rules (measurement sweeps)
// and window-gated rules (the chaos harness, which calls SetActive as
// its schedule's interference windows open and close).
func (p *Interference) SetWindowed(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.windowed = on
}

// SetActive opens (or closes) the interference window for one country.
// Only consulted in windowed mode.
func (p *Interference) SetActive(country string, on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if on {
		p.active[country] = true
	} else {
		delete(p.active, country)
	}
}

// targeted returns the country's live rule when the policy currently
// applies to this domain.
func (p *Interference) targeted(country, domain string) (InterferenceRule, bool) {
	p.mu.RLock()
	rule, ok := p.rules[country]
	live := !p.windowed || p.active[country]
	p.mu.RUnlock()
	if !ok || !live || rule.DomainFraction <= 0 {
		return InterferenceRule{}, false
	}
	h := splitmix.String(splitmix.String(p.seed, country), domain)
	if splitmix.Unit(splitmix.Mix(h^0x91)) >= rule.DomainFraction {
		return InterferenceRule{}, false
	}
	return rule, true
}

// DNSPoisoned reports whether a lookup for domain through a resolver of
// the given class, by a client in country, receives a poisoned answer —
// and whether that answer is a bogon (vs a redirect to the censor's
// host). The control resolver's class never matches a rule, which is
// what makes probe-vs-control deltas attributable.
func (p *Interference) DNSPoisoned(country, resolverClass, domain string) (bogon, poisoned bool) {
	rule, ok := p.targeted(country, domain)
	if !ok || !rule.DNSPoison {
		return false, false
	}
	classes := rule.ResolverClasses
	if len(classes) == 0 {
		classes = []string{"same-country", "other-country"}
	}
	for _, c := range classes {
		if c == resolverClass {
			return rule.PoisonBogon, true
		}
	}
	return false, false
}

// SNIReset reports whether a TLS handshake naming domain, from a client
// in country, gets an injected connection reset.
func (p *Interference) SNIReset(country, domain string) bool {
	rule, ok := p.targeted(country, domain)
	return ok && rule.SNIReset
}

// BlockpageInjected reports whether a cleartext HTTP fetch of domain,
// from a client in country, is answered with the censor's blockpage.
func (p *Interference) BlockpageInjected(country, domain string) bool {
	rule, ok := p.targeted(country, domain)
	return ok && rule.Blockpage
}

// ThrottleRate returns the token-bucket (rate, burst) applied to
// transfers of domain for clients in country; ok=false means the
// transfer runs at line rate.
func (p *Interference) ThrottleRate(country, domain string) (bytesPerMs float64, burst int64, ok bool) {
	rule, okT := p.targeted(country, domain)
	if !okT || rule.ThrottleBytesPerMs <= 0 {
		return 0, 0, false
	}
	burst = rule.ThrottleBurstBytes
	if burst <= 0 {
		burst = 16 * 1024
	}
	return rule.ThrottleBytesPerMs, burst, true
}

// ThrottledTransferMs is the clock-free token-bucket transfer model:
// the first burst bytes pass at line rate, the rest drain at the
// throttle rate. lineMs is what the transfer would have taken
// unthrottled.
func ThrottledTransferMs(bytes int64, lineMs, bytesPerMs float64, burst int64) float64 {
	if bytes <= burst || bytesPerMs <= 0 {
		return lineMs
	}
	return lineMs + float64(bytes-burst)/bytesPerMs
}

// GenerateInterference draws a seeded default policy over the given
// countries: roughly a third of them interfere at all, and those that
// do get a deterministic mechanism mix (poisoning flavor, SNI resets,
// blockpages, throttling) over a quarter-to-half slice of their
// domains. Same seed and country list, same policy — the interference
// analogue of GenerateSchedule.
func GenerateInterference(seed int64, countries []string) *Interference {
	p := NewInterference(seed)
	for _, ctry := range countries {
		h := splitmix.String(uint64(seed), ctry)
		if splitmix.Unit(splitmix.Mix(h^0xA1)) >= 0.35 {
			continue
		}
		rule := InterferenceRule{
			Country:        ctry,
			DomainFraction: 0.25 + float64(splitmix.Mix(h^0xA6)%26)/100.0,
		}
		if splitmix.Mix(h^0xA9)%4 == 0 {
			// A quarter of interfering countries are covert throttlers:
			// rate-shaping with no overt mechanism, so the slowdown is the
			// only probe-vs-control delta — the case the throttled verdict
			// exists for. (Overt mechanisms sit higher in the detector's
			// attribution order and would mask it.)
			rule.ThrottleBytesPerMs = 8 + float64(splitmix.Mix(h^0xA8)%33)
			rule.ThrottleBurstBytes = 16 * 1024
			p.SetRule(rule)
			continue
		}
		rule.DNSPoison = splitmix.Mix(h^0xA2)%100 < 70
		rule.PoisonBogon = splitmix.Mix(h^0xA3)%2 == 0
		rule.SNIReset = splitmix.Mix(h^0xA4)%100 < 55
		rule.Blockpage = splitmix.Mix(h^0xA5)%100 < 45
		if splitmix.Mix(h^0xA7)%100 < 40 {
			// ~64-320 kbit/s: the "slow enough to be useless" band.
			rule.ThrottleBytesPerMs = 8 + float64(splitmix.Mix(h^0xA8)%33)
			rule.ThrottleBurstBytes = 16 * 1024
		}
		if !rule.DNSPoison && !rule.SNIReset && !rule.Blockpage && rule.ThrottleBytesPerMs == 0 {
			rule.DNSPoison = true
		}
		p.SetRule(rule)
	}
	return p
}
