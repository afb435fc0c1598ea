package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// fleetCountries and fleetASNs are the vantage spread every controller
// workload uses: 8 countries and 64 ASNs, so a country filter selects
// about an eighth of the store and group_by=country_asn yields a few
// hundred buckets.
var fleetCountries = []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}

const (
	fleetASNBase = 36900
	fleetASNs    = 64
)

// simProbe is one simulated probe: its registration and the outbox of
// executed-but-not-yet-accepted results (the stand-in for its spool).
type simProbe struct {
	info   core.ProbeInfo
	outbox []probes.Result
	done   bool
}

// genFleet lays a fleet out from the seed: which probe sits in which
// country and ASN is a seeded shuffle, but every country gets the same
// number of probes (and every ASN, to within one), so the amount of
// work behind a country walk does not depend on the seed. tag keeps
// probe ids of different fleets in one process apart.
func genFleet(seed int64, tag string, n int) []*simProbe {
	rng := rand.New(rand.NewSource(seed))
	slots := rng.Perm(n)
	fleet := make([]*simProbe, n)
	for i := range fleet {
		fleet[i] = &simProbe{info: core.ProbeInfo{
			ID:      fmt.Sprintf("%s-%06d", tag, i),
			Country: fleetCountries[slots[i]%len(fleetCountries)],
			ASN:     topology.ASN(fleetASNBase + slots[i]/len(fleetCountries)%fleetASNs),
			Kind:    "sim",
		}}
	}
	return fleet
}

// splitmix64 is the generator's stateless hash: results are a function
// of (seed, task id) alone, so the oracle does not depend on the order
// in which two concurrent clients happen to deliver.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// fabricate executes a task the way fleetsim does — the control plane
// is under test, not the measurement — but with a seeded OK/RTT mix so
// aggregates have loss rates and percentiles worth checking: one in ten
// results is a loss, RTTs spread over 5..205 ms.
func fabricate(seed int64, t probes.Task) probes.Result {
	h := splitmix64(uint64(seed) ^ hashString(t.Experiment+"/"+t.ID))
	r := probes.Result{TaskID: t.ID, Experiment: t.Experiment, Kind: t.Kind}
	if h%10 != 0 {
		r.OK = true
		r.RTTms = 5 + 200*float64(splitmix64(h)>>11)/float64(1<<53)
	}
	return r
}

// oracle is the generator's own book of what it delivered: enough to
// say how many records a country walk must return and what an
// unfiltered country_asn aggregate must read, field for field.
type oracle struct {
	perCountry map[string]int
	groups     map[string]*oracleGroup
	total      int
}

type oracleGroup struct {
	country string
	asn     topology.ASN
	count   int64
	ok      int64
	rtts    []float64
}

func newOracle() *oracle {
	return &oracle{perCountry: map[string]int{}, groups: map[string]*oracleGroup{}}
}

// add books delivered results of one probe. Callers serialize.
func (o *oracle) add(p core.ProbeInfo, rs []probes.Result) {
	key := fmt.Sprintf("%s/%d", p.Country, p.ASN)
	g := o.groups[key]
	if g == nil {
		g = &oracleGroup{country: p.Country, asn: p.ASN}
		o.groups[key] = g
	}
	for _, r := range rs {
		g.count++
		if r.OK {
			g.ok++
			if r.RTTms > 0 {
				g.rtts = append(g.rtts, r.RTTms)
			}
		}
	}
	o.perCountry[p.Country] += len(rs)
	o.total += len(rs)
}

// merge folds another oracle (one client's book) into o.
func (o *oracle) merge(other *oracle) {
	for k, g := range other.groups {
		dst := o.groups[k]
		if dst == nil {
			o.groups[k] = g
			continue
		}
		dst.count += g.count
		dst.ok += g.ok
		dst.rtts = append(dst.rtts, g.rtts...)
	}
	for c, n := range other.perCountry {
		o.perCountry[c] += n
	}
	o.total += other.total
}

// aggFull is the brute-force fold an unfiltered group_by=country_asn
// aggregate is compared with: counts, loss rate and exact nearest-rank
// percentiles, groups sorted by key like the store sorts them.
func (o *oracle) aggFull() store.AggReport {
	keys := make([]string, 0, len(o.groups))
	for k := range o.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rep := store.AggReport{Matched: int64(o.total)}
	for _, k := range keys {
		g := o.groups[k]
		ag := store.AggGroup{Country: g.country, ASN: g.asn, Count: g.count, OK: g.ok}
		if g.count > 0 {
			ag.LossRate = 1 - float64(g.ok)/float64(g.count)
		}
		if len(g.rtts) > 0 {
			rtts := append([]float64(nil), g.rtts...)
			sort.Float64s(rtts)
			sum := 0.0
			for _, v := range rtts {
				sum += v
			}
			ag.RTTCount = int64(len(rtts))
			ag.RTTMean = sum / float64(len(rtts))
			ag.RTTP50 = nearestRank(rtts, 50)
			ag.RTTP90 = nearestRank(rtts, 90)
			ag.RTTP99 = nearestRank(rtts, 99)
		}
		rep.Groups = append(rep.Groups, ag)
	}
	return rep
}

// nearestRank is the nearest-rank percentile of an ascending sample.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// diffAgg compares an aggregate response with the oracle's fold and
// names the first field that differs.
func diffAgg(got, want store.AggReport) error {
	if got.Matched != want.Matched {
		return fmt.Errorf("matched %d, oracle %d", got.Matched, want.Matched)
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d groups, oracle %d", len(got.Groups), len(want.Groups))
	}
	for i, w := range want.Groups {
		g := got.Groups[i]
		switch {
		case g.Country != w.Country || g.ASN != w.ASN:
			return fmt.Errorf("group %d is %s/%d, oracle %s/%d", i, g.Country, g.ASN, w.Country, w.ASN)
		case g.Count != w.Count || g.OK != w.OK || g.RTTCount != w.RTTCount:
			return fmt.Errorf("group %s/%d counts %d/%d/%d, oracle %d/%d/%d",
				w.Country, w.ASN, g.Count, g.OK, g.RTTCount, w.Count, w.OK, w.RTTCount)
		case g.LossRate != w.LossRate:
			return fmt.Errorf("group %s/%d loss rate %v, oracle %v", w.Country, w.ASN, g.LossRate, w.LossRate)
		case g.RTTP50 != w.RTTP50 || g.RTTP90 != w.RTTP90 || g.RTTP99 != w.RTTP99:
			return fmt.Errorf("group %s/%d percentiles %v/%v/%v, oracle %v/%v/%v",
				w.Country, w.ASN, g.RTTP50, g.RTTP90, g.RTTP99, w.RTTP50, w.RTTP90, w.RTTP99)
		case math.Abs(g.RTTMean-w.RTTMean) > 1e-9*math.Max(1, math.Abs(w.RTTMean)):
			return fmt.Errorf("group %s/%d mean %v, oracle %v", w.Country, w.ASN, g.RTTMean, w.RTTMean)
		}
	}
	return nil
}
