package outage

import (
	"github.com/afrinet/observatory/internal/dnssim"
)

// PoisonDNS wraps a resolver chain with this policy's on-path DNS
// poisoning for one country. The wrapper resolves through the inner
// chain, then consults Interference.DNSPoisoned with the answer's
// resolver class — so a client on a cloud resolver whose country only
// poisons ISP resolvers sails through. A nil policy returns the chain
// unwrapped.
//
// The wrapper sits *outside* the chain's cache, so poisoned verdicts are
// recomputed per query and cached answers stay pristine.
func PoisonDNS(pol *Interference, country string, next dnssim.Resolver) dnssim.Resolver {
	if pol == nil {
		return next
	}
	return &poisonResolver{pol: pol, country: country, next: next}
}

type poisonResolver struct {
	pol     *Interference
	country string
	next    dnssim.Resolver
}

func (p *poisonResolver) Resolve(q dnssim.Query) dnssim.Answer {
	ans := p.next.Resolve(q)
	if !ans.OK {
		return ans
	}
	bogon, poisoned := p.pol.DNSPoisoned(p.country, ans.Assignment.Kind.String(), q.Domain)
	if poisoned {
		ans.Poisoned = true
		ans.PoisonBogon = bogon
		ans.Chain = "poison>" + ans.Chain
	}
	return ans
}
