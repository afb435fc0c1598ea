// Package websim is the step-following web measurement engine — the
// websteps measurement shape ported onto the synthetic substrate. One
// URL is followed through DNS → TCP → TLS → HTTP redirect steps from
// two vantages at once (the probe under test and an out-of-country
// control), and every sub-measurement lands in one flat, ID-linked
// archival.Measurement. Interference comes from an injectable
// outage.Interference policy: poisoned DNS, SNI resets, blockpage
// substitution, and token-bucket throttling all show up as
// probe-vs-control deltas the detector (detector.go) classifies.
//
// Everything is a pure function of (seed, data-plane state, policy
// state): no wall clock, no global randomness, so sweeps replay
// byte-identically and compose with the chaos schedule.
package websim

import (
	"fmt"
	"sync"

	"github.com/afrinet/observatory/internal/archival"
	"github.com/afrinet/observatory/internal/content"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/outage"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
)

// lineRateBytesPerMs is the unthrottled transfer rate of the access
// path (~10 Mbit/s), the baseline throttling is measured against.
const lineRateBytesPerMs = 1250.0

// controlResolverClass tags the control vantage's lookups; it never
// matches an interference rule's resolver classes, which is what makes
// the control view truthful by construction.
const controlResolverClass = "control"

// Engine measures URLs over the simulated substrate.
type Engine struct {
	net  *netsim.Net
	dns  *dnssim.System
	web  *content.System
	pol  *outage.Interference // nil: no interference
	topo *topology.Topology
	seed uint64

	control topology.ASN // control (test-helper) vantage

	mu      sync.RWMutex
	censors map[string]topology.ASN // per-country censor host AS
}

// New binds an engine to the substrate. pol may be nil (interference-
// free runs). The control vantage is the first European transit AS —
// the out-of-country test helper every probe view is compared against.
func New(n *netsim.Net, dns *dnssim.System, web *content.System, pol *outage.Interference, seed int64) *Engine {
	e := &Engine{
		net:     n,
		dns:     dns,
		web:     web,
		pol:     pol,
		topo:    n.Topology(),
		seed:    uint64(seed),
		censors: make(map[string]topology.ASN),
	}
	for _, ctry := range []string{"DE", "FR", "NL", "GB"} {
		for _, a := range e.topo.ASesIn(ctry) {
			if e.topo.ASes[a].Type == topology.ASTransit {
				e.control = a
				break
			}
		}
		if e.control != 0 {
			break
		}
	}
	if e.control == 0 && len(e.topo.ASNs()) > 0 {
		e.control = e.topo.ASNs()[0]
	}
	return e
}

// truthAddr is the domain's genuine serving address. It is anchored to
// the site's provider AS, not the vantage, so both resolvers agree on
// the untampered answer and any disjoint probe answer is attributable
// to tampering rather than CDN mapping.
func (e *Engine) truthAddr(site content.Site) string {
	h := splitmix.String(0, site.Domain)
	return e.net.HostAddr(site.Provider, int(h%4)).String()
}

// bogonAddr is the never-routed answer a bogon-poisoning resolver
// hands out for the domain.
func bogonAddr(domain string) string {
	h := splitmix.String(0, domain)
	return fmt.Sprintf("10.66.%d.%d", (h>>8)&0xff, h&0xff)
}

// censorFor picks the country's censor-operated host network: the
// government AS when the country has one, else its first network.
func (e *Engine) censorFor(country string) topology.ASN {
	e.mu.RLock()
	asn, ok := e.censors[country]
	e.mu.RUnlock()
	if ok {
		return asn
	}
	for _, a := range e.topo.ASesIn(country) {
		if e.topo.ASes[a].Type == topology.ASGovernment {
			asn = a
			break
		}
	}
	if asn == 0 {
		if all := e.topo.ASesIn(country); len(all) > 0 {
			asn = all[0]
		}
	}
	e.mu.Lock()
	e.censors[country] = asn
	e.mu.Unlock()
	return asn
}

// vantage is the per-origin working state of one measurement.
type vantage struct {
	origin  archival.Origin
	asn     topology.ASN
	answers []string
	dnsOK   bool
	rttMs   float64 // RTT to the genuine serving location
	fetchOK bool
}

// Measure follows the site's URL through its redirect chain from the
// probe and control vantages and returns the flat archival record. The
// chain is the common shape: a cleartext step that redirects to HTTPS,
// then the TLS step that transfers the body. Interference hooks at
// each layer: the probe's resolver may be poisoned, its ClientHello
// may be reset, its cleartext response may be a blockpage, and its
// transfer may be throttled; the control sees none of that.
func (e *Engine) Measure(client topology.ASN, site content.Site) *archival.Measurement {
	domain := site.Domain
	country := ""
	if as := e.topo.ASes[client]; as != nil {
		country = as.Country
	}
	probeRes := e.dns.AssignmentFor(client)
	m := &archival.Measurement{
		MeasurementID: fmt.Sprintf("ws:%s:%d", domain, client),
		URL:           "http://" + domain + "/",
		Domain:        domain,
		ProbeCountry:  country,
		ProbeASN:      uint32(client),
		ResolverClass: probeRes.Kind.String(),
		Steps: []archival.Step{
			{StepID: 1, URL: "http://" + domain + "/"},
			{StepID: 2, URL: "https://" + domain + "/"},
		},
	}
	var g archival.IDGen
	truth := e.truthAddr(site)

	// --- Step 1: DNS from both vantages -------------------------------
	probe := &vantage{origin: archival.OriginProbe, asn: client}
	ctrl := &vantage{origin: archival.OriginControl, asn: e.control}

	// The probe's lookup runs through its resolver chain with the
	// country's on-path poisoning wrapped outside it.
	chain := outage.PoisonDNS(e.pol, country, e.dns.ChainFor(client))
	ans := chain.Resolve(dnssim.Query{
		Client: client, Domain: domain, OriginCountry: site.Country,
	})
	pd := archival.DNSLookup{
		ID: g.Next(), StepID: 1, Origin: archival.OriginProbe, Domain: domain,
		ResolverClass:   probeRes.Kind.String(),
		ResolverCountry: ans.Assignment.Country,
		LatencyMs:       ans.LatencyMs,
	}
	if !ans.OK {
		pd.Failure = ans.FailReason
	} else {
		probe.dnsOK = true
		switch {
		case ans.Poisoned && ans.PoisonBogon:
			pd.Answers, pd.Bogon = []string{bogonAddr(domain)}, true
		case ans.Poisoned:
			pd.Answers = []string{e.net.HostAddr(e.censorFor(country), 7).String()}
		default:
			pd.Answers = []string{truth}
		}
		probe.answers = pd.Answers
	}
	m.DNS = append(m.DNS, pd)

	cd := archival.DNSLookup{
		ID: g.Next(), StepID: 1, Origin: archival.OriginControl, Domain: domain,
		ResolverClass: controlResolverClass,
	}
	auth := e.dns.Authority(domain, site.Country)
	if rtt, ok := e.net.RTTBetween(e.control, auth.ASN); auth.ASN != 0 && ok {
		cd.Answers = []string{truth}
		cd.LatencyMs = rtt
		ctrl.dnsOK = true
		ctrl.answers = cd.Answers
	} else {
		cd.Failure = "authoritative unreachable"
	}
	m.DNS = append(m.DNS, cd)

	// The genuine serving path for each vantage (CDN mapping included):
	// dial reachability and RTT come from here.
	pf := e.web.Fetch(client, site)
	probe.fetchOK, probe.rttMs = pf.OK, pf.RTTms
	cf := e.web.Fetch(e.control, site)
	ctrl.fetchOK, ctrl.rttMs = cf.OK, cf.RTTms

	// --- Step 1: dial + cleartext HTTP --------------------------------
	// The probe dials the union of its own answers and the control's
	// (websteps endpoint sharing: even a probe whose resolver lies can
	// test the genuine endpoints the control discovered).
	probeRedirected := e.stepOne(m, &g, probe, ctrl, site, domain, country, truth)

	// --- Step 2: TLS + body transfer ----------------------------------
	if probeRedirected {
		e.stepTwo(m, &g, probe, site, domain, country, truth)
	}
	if ctrl.dnsOK && ctrl.fetchOK {
		e.stepTwo(m, &g, ctrl, site, domain, country, truth)
	}
	return m
}

// dialOne records one TCP connect attempt and reports success.
func (e *Engine) dialOne(m *archival.Measurement, g *archival.IDGen, v *vantage, step int64, addr string, port int, country string) (int64, bool) {
	d := archival.EndpointDial{
		ID: g.Next(), StepID: step, EndpointID: g.Next(), Origin: v.origin,
		Address: addr, Port: port,
	}
	ok := false
	switch {
	case isBogon(addr):
		d.Failure = "timed_out"
	case addr != "" && country != "" && addr == e.net.HostAddr(e.censorFor(country), 7).String():
		// The censor's blockpage host: reachable in-country.
		if rtt, okR := e.net.RTTBetween(v.asn, e.censorFor(country)); okR {
			d.LatencyMs, ok = rtt, true
		} else {
			d.Failure = "unreachable"
		}
	default:
		if v.fetchOK {
			d.LatencyMs, ok = v.rttMs, true
		} else {
			d.Failure = "unreachable"
		}
	}
	m.Dials = append(m.Dials, d)
	return d.EndpointID, ok
}

// stepOne runs the cleartext step for both vantages and reports
// whether the probe saw a redirect to follow.
func (e *Engine) stepOne(m *archival.Measurement, g *archival.IDGen, probe, ctrl *vantage, site content.Site, domain, country, truth string) bool {
	probeRedirected := false
	if probe.dnsOK {
		dialed := map[string]bool{}
		for _, addr := range append(append([]string{}, probe.answers...), ctrl.answers...) {
			if addr == "" || dialed[addr] {
				continue
			}
			dialed[addr] = true
			ep, ok := e.dialOne(m, g, probe, 1, addr, 80, country)
			if !ok {
				continue
			}
			h := archival.HTTPRoundTrip{
				ID: g.Next(), StepID: 1, EndpointID: ep, Origin: probe.origin,
				URL: "http://" + domain + "/",
			}
			blockpage := addr != truth // censor endpoint serves its page
			if e.pol != nil && e.pol.BlockpageInjected(country, domain) {
				blockpage = true // on-path substitution even on the genuine endpoint
			}
			if blockpage {
				h.StatusCode = 200
				h.BodyBytes = content.BlockpageBytes
				h.BodyHash = content.BlockpageHash(country)
				h.TransferMs = m.Dials[len(m.Dials)-1].LatencyMs
			} else {
				h.StatusCode = 301
				h.RedirectTo = "https://" + domain + "/"
				if addr == truth {
					probeRedirected = true
				}
			}
			m.HTTP = append(m.HTTP, h)
		}
	}
	if ctrl.dnsOK {
		for _, addr := range ctrl.answers {
			ep, ok := e.dialOne(m, g, ctrl, 1, addr, 80, country)
			if !ok {
				continue
			}
			m.HTTP = append(m.HTTP, archival.HTTPRoundTrip{
				ID: g.Next(), StepID: 1, EndpointID: ep, Origin: ctrl.origin,
				URL: "http://" + domain + "/", StatusCode: 301,
				RedirectTo: "https://" + domain + "/",
			})
		}
	}
	return probeRedirected
}

// stepTwo runs the HTTPS step for one vantage: dial :443, handshake
// with the domain in the SNI, then transfer the body.
func (e *Engine) stepTwo(m *archival.Measurement, g *archival.IDGen, v *vantage, site content.Site, domain, country, truth string) {
	ep, ok := e.dialOne(m, g, v, 2, truth, 443, country)
	if !ok {
		return
	}
	hs := archival.TLSHandshake{
		ID: g.Next(), StepID: 2, EndpointID: ep, Origin: v.origin, SNI: domain,
	}
	if v.origin == archival.OriginProbe && e.pol != nil && e.pol.SNIReset(country, domain) {
		hs.Failure = "connection_reset"
		m.TLS = append(m.TLS, hs)
		return
	}
	hs.LatencyMs = 2 * v.rttMs
	m.TLS = append(m.TLS, hs)

	bytes := e.web.BodyBytes(site)
	lineMs := v.rttMs + float64(bytes)/lineRateBytesPerMs
	transferMs := lineMs
	if v.origin == archival.OriginProbe && e.pol != nil {
		if rate, burst, okT := e.pol.ThrottleRate(country, domain); okT {
			transferMs = outage.ThrottledTransferMs(bytes, lineMs, rate, burst)
		}
	}
	m.HTTP = append(m.HTTP, archival.HTTPRoundTrip{
		ID: g.Next(), StepID: 2, EndpointID: ep, Origin: v.origin,
		URL: "https://" + domain + "/", StatusCode: 200,
		BodyBytes: bytes, BodyHash: e.web.BodyHash(site),
		TransferMs: transferMs,
	})
}

// isBogon reports whether the address sits in the model's never-routed
// poison range.
func isBogon(addr string) bool {
	return len(addr) > 6 && addr[:6] == "10.66."
}
