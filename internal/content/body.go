package content

// body.go models page content identity and size — what a websteps-style
// fetch actually compares across vantages. A site's body is identified
// by a deterministic hash (two vantages fetching the untampered site
// see the same hash, wherever the CDN served it from) and sized from a
// seeded per-domain draw; the censor's blockpage has its own hash and a
// small fixed size, so substitution is visible as a (hash, size) delta.

import (
	"fmt"

	"github.com/afrinet/observatory/internal/splitmix"
)

// BlockpageBytes is the size of the injected blockpage: a static
// notice, tiny next to real pages.
const BlockpageBytes = 2048

// BodyBytes returns the site's page weight in bytes: a deterministic
// per-domain draw over 16KB..512KB, biased low — most top sites are a
// few tens of KB of HTML, a few are heavyweight.
func (s *System) BodyBytes(site Site) int64 {
	draw := s.f(splitmix.String(0, site.Domain), 0x81)
	kb := 16 + int64(draw*draw*496) // quadratic bias toward small pages
	return kb * 1024
}

// BodyHash returns the content identity of the site's genuine page.
func (s *System) BodyHash(site Site) string {
	return fmt.Sprintf("%016x", splitmix.Mix(splitmix.String(s.seed, site.Domain)^0x82))
}

// BlockpageHash returns the content identity of a country's injected
// blockpage — one page per censor, shared across every blocked domain,
// which is exactly how real blockpage fingerprinting works.
func BlockpageHash(country string) string {
	return fmt.Sprintf("blockpage-%012x", splitmix.Mix(splitmix.String(0x6b, country))&0xffffffffffff)
}
