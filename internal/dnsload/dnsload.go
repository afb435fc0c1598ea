// Package dnsload is the high-QPS DNS measurement engine: a
// rate-controlled load driver in the dns-client-subnet-ext shape that
// turns the dnssim resolver-chain substrate into a
// millions-of-queries-per-run workload. A token bucket paces logical
// queries per second, a bounded internal/par worker pool executes them,
// timeouts retry with bounded seeded backoff, and the run aggregates
// per-chain, per-country, and latency-histogram statistics — including
// the ECS-vs-non-ECS localization comparison the Section 5.2 resolver
// study scales up on.
//
// Everything is simulated logical time: query latencies come from
// netsim RTTs jittered by a seeded hash, send times come from the
// token bucket, and no wall clock or global randomness is consulted
// anywhere. A run is a pure function of (substrate seed, Config), so
// identical configs aggregate identically at any worker count — the
// property TestRunDeterministicAcrossWorkers pins.
package dnsload

import (
	"sort"
	"time"

	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
)

// shards is the fixed aggregation fan-out. Queries are striped over
// shards by index and shard aggregates merge in shard order, so results
// are independent of how many workers the pool actually runs.
const shards = 64

// Target is one domain under load.
type Target struct {
	Domain        string
	OriginCountry string
}

// Config parameterizes one load run.
type Config struct {
	// Seed drives jitter and client/target sampling.
	Seed uint64
	// Queries is the number of logical queries to issue.
	Queries int
	// QPS is the token-bucket rate in logical queries per second
	// (default 2000); Burst is the bucket depth (default 64).
	QPS   float64
	Burst int
	// Workers bounds the worker pool (0: the par default).
	Workers int
	// TimeoutMs is the per-attempt timeout (default 300); Retries is
	// the number of re-sends after the first attempt (0: none).
	TimeoutMs float64
	Retries   int
	// ECS attaches client-subnet information to every query.
	ECS bool
	// CompareECS additionally resolves every query with ECS flipped and
	// counts answer mismatches (served-replica disagreement).
	CompareECS bool
	// Clients are the vantage networks to sample from; Targets the
	// domains. Both must be non-empty.
	Clients []topology.ASN
	Targets []Target
}

// backoffMs is the base retry backoff, doubled per attempt and jittered.
const backoffMs = 50.0

func (c Config) withDefaults() Config {
	if c.QPS <= 0 {
		c.QPS = 2000
	}
	if c.Burst <= 0 {
		c.Burst = 64
	}
	if c.TimeoutMs <= 0 {
		c.TimeoutMs = 300
	}
	return c
}

// Bucket is the fluid-model token bucket that paces the run: tokens
// accrue at QPS per second into a bucket of depth Burst, and query i
// departs the moment its token exists. In simulated time that has a
// closed form, which keeps pacing exact at millions of queries per
// second with zero clock reads.
type Bucket struct {
	QPS   float64
	Burst int
}

// SendAtMs returns the departure time of the i-th query (0-based) in
// logical milliseconds from run start.
func (b Bucket) SendAtMs(i int) float64 {
	if i < b.Burst {
		return 0
	}
	return float64(i-b.Burst+1) * 1000 / b.QPS
}

// u01 folds hash words into [0,1).
func u01(vals ...uint64) float64 { return splitmix.Unit(splitmix.Fold(0x6c657473676f3130, vals...)) }

// ChainCount is one chain-shape bucket of a report.
type ChainCount struct {
	Chain   string
	Queries int
}

// CountryAgg is one client-country bucket of a report.
type CountryAgg struct {
	Country   string
	Queries   int
	OK        int
	CloudAuth int
	Localized int
}

// Report is the aggregate outcome of one run.
type Report struct {
	Queries  int
	OK       int
	Failed   int // unreachable / placement failures (no amount of retrying helps)
	TimedOut int // every attempt exceeded the timeout
	Retried  int // queries that needed at least one re-send
	Attempts int // total sends, retries included

	CloudAuth  int // successful queries answered by cloud-hosted authorities
	Localized  int // ... whose served replica was the client's best one
	Mismatches int // CompareECS only: served replica changed when ECS flipped

	OfferedQPS  float64 // token-bucket rate
	AchievedQPS float64 // queries / makespan (logical)
	MakespanMs  float64 // last completion in logical time

	MeanMs, P50Ms, P90Ms, P99Ms, MaxMs float64

	ByChain   []ChainCount // sorted by chain string
	ByCountry []CountryAgg // sorted by country
}

// shardAgg accumulates one stripe's counters; merged in shard order.
type shardAgg struct {
	ok, failed, timedOut, retried, attempts int
	cloudAuth, localized, mismatches        int
	maxDoneMs                               float64
	byChain                                 map[string]int
	byCountry                               map[string]*CountryAgg
}

// Run executes the load configuration against a resolver-chain system
// and aggregates the outcome. Pure, clock-free, and worker-count
// independent.
func Run(sys *dnssim.System, cfg Config) Report {
	cfg = cfg.withDefaults()
	rep := Report{Queries: cfg.Queries, OfferedQPS: cfg.QPS}
	if cfg.Queries <= 0 || len(cfg.Clients) == 0 || len(cfg.Targets) == 0 {
		return rep
	}
	bucket := Bucket{QPS: cfg.QPS, Burst: cfg.Burst}
	var hist obs.Histogram

	aggs := par.Map(cfg.Workers, shards, func(sh int) *shardAgg {
		a := &shardAgg{byChain: map[string]int{}, byCountry: map[string]*CountryAgg{}}
		for i := sh; i < cfg.Queries; i += shards {
			runOne(sys, cfg, bucket, &hist, a, i)
		}
		return a
	})

	byChain := map[string]int{}
	byCountry := map[string]*CountryAgg{}
	for _, a := range aggs {
		rep.OK += a.ok
		rep.Failed += a.failed
		rep.TimedOut += a.timedOut
		rep.Retried += a.retried
		rep.Attempts += a.attempts
		rep.CloudAuth += a.cloudAuth
		rep.Localized += a.localized
		rep.Mismatches += a.mismatches
		if a.maxDoneMs > rep.MakespanMs {
			rep.MakespanMs = a.maxDoneMs
		}
		for k, v := range a.byChain {
			byChain[k] += v
		}
		for k, v := range a.byCountry {
			c := byCountry[k]
			if c == nil {
				c = &CountryAgg{Country: k}
				byCountry[k] = c
			}
			c.Queries += v.Queries
			c.OK += v.OK
			c.CloudAuth += v.CloudAuth
			c.Localized += v.Localized
		}
	}
	for k, v := range byChain {
		rep.ByChain = append(rep.ByChain, ChainCount{Chain: k, Queries: v})
	}
	sort.Slice(rep.ByChain, func(i, j int) bool { return rep.ByChain[i].Chain < rep.ByChain[j].Chain })
	for _, v := range byCountry {
		rep.ByCountry = append(rep.ByCountry, *v)
	}
	sort.Slice(rep.ByCountry, func(i, j int) bool { return rep.ByCountry[i].Country < rep.ByCountry[j].Country })

	if rep.MakespanMs > 0 {
		rep.AchievedQPS = float64(cfg.Queries) / (rep.MakespanMs / 1000)
	}
	s := hist.Snapshot()
	rep.MeanMs = float64(s.Mean) / float64(time.Millisecond)
	rep.P50Ms = float64(s.P50) / float64(time.Millisecond)
	rep.P90Ms = float64(s.P90) / float64(time.Millisecond)
	rep.P99Ms = float64(s.P99) / float64(time.Millisecond)
	rep.MaxMs = float64(s.Max) / float64(time.Millisecond)
	return rep
}

// runOne plays out query i: pick vantage and target, resolve through
// the chain once (the answer is latency truth for every attempt), then
// walk the retry schedule in logical time.
func runOne(sys *dnssim.System, cfg Config, bucket Bucket, hist *obs.Histogram, a *shardAgg, i int) {
	h := splitmix.Mix(cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15)
	client := cfg.Clients[splitmix.Pick(h, len(cfg.Clients))]
	target := cfg.Targets[splitmix.Pick(splitmix.Mix(h), len(cfg.Targets))]

	country := sys.CountryOf(client)
	ca := a.byCountry[country]
	if ca == nil {
		ca = &CountryAgg{Country: country}
		a.byCountry[country] = ca
	}
	ca.Queries++

	q := dnssim.Query{Client: client, Domain: target.Domain, OriginCountry: target.OriginCountry, ECS: cfg.ECS}
	ans := sys.ChainFor(client).Resolve(q)
	if !ans.OK {
		// Unreachable resolver or authority: retries cannot help in a
		// static failure state, the query burns its full schedule.
		a.failed++
		a.attempts += 1 + cfg.Retries
		a.byChain[ans.Chain]++
		return
	}
	a.byChain[ans.Chain]++

	// Retry-on-timeout in logical time: each attempt sees the chain
	// latency under independent seeded jitter; an attempt past the
	// timeout burns TimeoutMs plus a doubling jittered backoff from
	// backoffMs.
	elapsed := 0.0
	attempts := 0
	success := false
	for try := 0; try <= cfg.Retries; try++ {
		attempts++
		jitter := 0.85 + 0.5*u01(cfg.Seed, uint64(i), uint64(try), 0x7472)
		attemptMs := ans.LatencyMs * jitter
		if attemptMs <= cfg.TimeoutMs {
			elapsed += attemptMs
			success = true
			break
		}
		elapsed += cfg.TimeoutMs
		if try < cfg.Retries {
			backoff := backoffMs * float64(uint64(1)<<uint(try)) * (0.75 + 0.5*u01(cfg.Seed, uint64(i), uint64(try), 0x626f))
			elapsed += backoff
		}
	}
	a.attempts += attempts
	if attempts > 1 {
		a.retried++
	}
	doneMs := bucket.SendAtMs(i) + elapsed
	if doneMs > a.maxDoneMs {
		a.maxDoneMs = doneMs
	}
	if !success {
		a.timedOut++
		return
	}
	a.ok++
	ca.OK++
	hist.Observe(time.Duration(elapsed * float64(time.Millisecond)))
	if ans.Auth.Cloud {
		a.cloudAuth++
		ca.CloudAuth++
		if ans.Localized {
			a.localized++
			ca.Localized++
		}
	}
	if cfg.CompareECS {
		q.ECS = !cfg.ECS
		if flip := sys.ChainFor(client).Resolve(q); flip.OK {
			if flip.ServedASN != ans.ServedASN {
				a.mismatches++
			}
		}
	}
}
