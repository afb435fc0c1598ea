// Package anycast implements a MAnycast-style census (the anycast
// research Section 7.2 lists among the observatory's workloads):
// classify a target address as anycast or unicast by probing it from
// many vantages and looking for great-circle-policy violations — two
// distant vantages both measuring an RTT that no single physical site
// could serve — then estimate the instance count by clustering the
// low-latency vantages (an iGreedy-style lower bound).
package anycast

import (
	"sort"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/topology"
)

// Probe is one vantage's measurement of the target.
type Probe struct {
	Vantage topology.ASN
	Country string
	RTTms   float64
}

// Verdict is the census outcome for one target.
type Verdict struct {
	Target  netx.Addr
	Probes  []Probe
	Anycast bool
	// Violations counts vantage pairs whose joint RTTs are physically
	// impossible from one site.
	Violations int
	// Instances is the iGreedy-style lower bound on instance count
	// (clusters of sub-threshold vantages too far apart to share a site).
	Instances int
}

// Census runs the method against a data plane.
type Census struct {
	net  *netsim.Net
	topo *topology.Topology
}

// MAnycast-like thresholds. Both are float64: an untyped integer would
// make localRTTms / 2 integer division.
const (
	// localRTTms is the RTT under which a vantage is considered to sit
	// next to an instance (used for instance clustering).
	localRTTms float64 = 25
	// slackMs absorbs processing/jitter before declaring a violation.
	slackMs float64 = 8
)

// New builds a census over a data plane.
func New(n *netsim.Net) *Census {
	return &Census{net: n, topo: n.Topology()}
}

// Measure probes the target from every vantage and classifies it.
func (c *Census) Measure(vantages []topology.ASN, target netx.Addr) Verdict {
	v := Verdict{Target: target}
	for _, src := range vantages {
		rtt, ok := c.net.Ping(src, target)
		if !ok {
			continue
		}
		as := c.topo.ASes[src]
		if as == nil {
			continue
		}
		v.Probes = append(v.Probes, Probe{Vantage: src, Country: as.Country, RTTms: rtt})
	}
	sort.Slice(v.Probes, func(i, j int) bool { return v.Probes[i].Vantage < v.Probes[j].Vantage })

	// Great-circle-policy check: if the target were one site at ANY
	// location, then for every vantage pair the site-to-vantage paths
	// must cover at least the inter-vantage distance (triangle
	// inequality): rtt_a/2 + rtt_b/2 >= propagation(d(a,b)).
	for i := 0; i < len(v.Probes); i++ {
		for j := i + 1; j < len(v.Probes); j++ {
			ca, okA := geo.Lookup(v.Probes[i].Country)
			cb, okB := geo.Lookup(v.Probes[j].Country)
			if !okA || !okB {
				continue
			}
			need := geo.PropagationDelayMs(geo.DistanceKm(ca.Hub, cb.Hub))
			have := v.Probes[i].RTTms/2 + v.Probes[j].RTTms/2
			if have+slackMs < need {
				v.Violations++
			}
		}
	}
	v.Anycast = v.Violations > 0
	if v.Anycast {
		v.Instances = c.clusterInstances(v.Probes)
	} else if len(v.Probes) > 0 {
		v.Instances = 1
	}
	return v
}

// clusterInstances greedily groups sub-threshold vantages: two local
// vantages can share an instance only if they are close enough that one
// site could serve both within the threshold.
func (c *Census) clusterInstances(probes []Probe) int {
	var local []geo.Coord
	for _, p := range probes {
		if p.RTTms > localRTTms {
			continue
		}
		if ctry, ok := geo.Lookup(p.Country); ok {
			local = append(local, ctry.Hub)
		}
	}
	if len(local) == 0 {
		return 1 // anycast but no vantage near any instance
	}
	// A site serving a vantage within localRTTms sits within this radius.
	radiusKM := localRTTms / 2 * 200
	var centers []geo.Coord
	for _, p := range local {
		placed := false
		for _, ctr := range centers {
			if geo.DistanceKm(p, ctr) <= 2*radiusKM {
				placed = true
				break
			}
		}
		if !placed {
			centers = append(centers, p)
		}
	}
	return len(centers)
}
