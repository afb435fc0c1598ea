package observatory

// The benchmark harness: one benchmark per table and figure of the
// paper, plus the ablations DESIGN.md calls out. Each benchmark runs the
// full experiment driver end-to-end; reported ns/op is the cost of
// regenerating the artifact. `go test -bench=. -benchmem` regenerates
// everything (numbers recorded in EXPERIMENTS.md).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/afrinet/observatory/internal/dnsload"
	"github.com/afrinet/observatory/internal/experiments"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchSetup(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = experiments.NewEnv(42, 2025) })
	return benchEnv
}

// BenchmarkFig1InfrastructureGrowth regenerates Figure 1 (the 2015-2025
// infrastructure timeline per region).
func BenchmarkFig1InfrastructureGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1Growth(42)
		if r.AfricaIXPGrowthPct < 400 {
			b.Fatalf("IXP growth collapsed: %v", r.AfricaIXPGrowthPct)
		}
	}
}

// BenchmarkFig2aDetourPrevalence regenerates Figure 2a.
func BenchmarkFig2aDetourPrevalence(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2aDetours(env)
		if r.OverallPct <= 0 {
			b.Fatal("no detours measured")
		}
	}
}

// BenchmarkFig2bContentLocality regenerates Figure 2b.
func BenchmarkFig2bContentLocality(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2bContentLocality(env)
		if r.OverallPct <= 0 {
			b.Fatal("no locality measured")
		}
	}
}

// BenchmarkFig2cResolverLocality regenerates Figure 2c.
func BenchmarkFig2cResolverLocality(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2cResolverUse(env)
		if len(r.Regions) != 5 {
			b.Fatal("missing regions")
		}
	}
}

// BenchmarkFig3IXPPrevalence regenerates Figure 3.
func BenchmarkFig3IXPPrevalence(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3IXPPrevalence(env)
		if len(r.Regions) != 5 {
			b.Fatal("missing regions")
		}
	}
}

// BenchmarkFig4OutageImpact regenerates Figure 4 (two simulated years of
// outages with impact evaluation).
func BenchmarkFig4OutageImpact(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4Outages(env)
		if r.CountByContinent["Africa"] == 0 {
			b.Fatal("no outages detected")
		}
	}
}

// BenchmarkTable1ScanCoverage regenerates Table 1 (three scanning
// methodologies over the full synthetic address space).
func BenchmarkTable1ScanCoverage(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Table1Scan(env)
		if len(r.Rows) != 3 {
			b.Fatal("missing tools")
		}
	}
}

// BenchmarkNautilusAmbiguity regenerates the Section 6.2 assessment.
func BenchmarkNautilusAmbiguity(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.NautilusAmbiguity(env)
		if r.Summary.PathsWithSubmarine == 0 {
			b.Fatal("no submarine paths")
		}
	}
}

// BenchmarkSetCoverPlacement regenerates footnote 1's greedy cover.
func BenchmarkSetCoverPlacement(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.SetCoverPlacement(env)
		if r.Universe != 77 {
			b.Fatalf("universe = %d, want 77", r.Universe)
		}
	}
}

// BenchmarkKigaliPilot regenerates the Section 7.3 comparison.
func BenchmarkKigaliPilot(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.KigaliPilot(env)
		if r.ObservatoryIXPs == 0 {
			b.Fatal("pilot saw nothing")
		}
	}
}

// BenchmarkWhatIfCableCut regenerates the correlated-cut scenario pair.
func BenchmarkWhatIfCableCut(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.WhatIfCableCut(env)
		if len(r.Baseline.Countries) == 0 {
			b.Fatal("no countries measured")
		}
	}
}

// BenchmarkAblationPlacement sweeps placement strategies.
func BenchmarkAblationPlacement(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPlacement(env)
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationBudget compares schedulers under prepaid pricing.
func BenchmarkAblationBudget(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationBudget(env)
		if r.BudgetAwareDone == 0 {
			b.Fatal("no tasks completed")
		}
	}
}

// BenchmarkAblationCorrelatedCuts compares failure models.
func BenchmarkAblationCorrelatedCuts(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationCorrelatedCuts(env)
		if r.CorrelatedMeanImpact == 0 {
			b.Fatal("no impact measured")
		}
	}
}

// BenchmarkRouteComputation measures the per-destination routing-tree
// computation (DESIGN.md's memoization ablation: the first call per
// destination pays this; subsequent path queries are map reads).
func BenchmarkRouteComputation(b *testing.B) {
	env := benchSetup(b)
	asns := env.Topo.ASNs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dest := asns[i%len(asns)]
		env.Router.Invalidate() // drop cached trees; an unchanged SetDownLinks would keep them
		tree := env.Router.Tree(dest)
		if tree.Size() == 0 {
			b.Fatal("empty routing tree")
		}
	}
}

// BenchmarkTreeParallel hammers the routing-tree cache from concurrent
// goroutines: a mix of warm hits and singleflight-coalesced misses, the
// access pattern the experiment drivers produce under internal/par.
func BenchmarkTreeParallel(b *testing.B) {
	env := benchSetup(b)
	asns := env.Topo.ASNs()
	env.Router.Invalidate()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tree := env.Router.Tree(asns[i%len(asns)])
			if tree.Size() == 0 {
				b.Fatal("empty routing tree")
			}
			i++
		}
	})
}

// BenchmarkTracerouteParallel measures concurrent traceroutes on a warm
// routing cache — the netsim read path under worker-pool drivers.
func BenchmarkTracerouteParallel(b *testing.B) {
	env := benchSetup(b)
	dst := env.Net.RouterAddr(15169, 0)
	env.Net.Traceroute(36924, dst) // warm the tree for dst
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr := env.Net.Traceroute(36924, dst)
			if len(tr.Hops) == 0 {
				b.Fatal("no hops")
			}
		}
	})
}

// BenchmarkTraceroute measures one end-to-end traceroute on a warm
// routing cache.
func BenchmarkTraceroute(b *testing.B) {
	env := benchSetup(b)
	dst := env.Net.RouterAddr(15169, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := env.Net.Traceroute(36924, dst)
		if len(tr.Hops) == 0 {
			b.Fatal("no hops")
		}
	}
}

// benchStoreRecords builds a seeded result corpus for the store
// benchmarks: several experiments, countries, and ASNs spread over a
// range of ticks, with realistic OK/loss and RTT mixes.
func benchStoreRecords(n int) []store.Record {
	rng := rand.New(rand.NewSource(7))
	countries := []string{"NG", "KE", "ZA", "RW", "EG"}
	recs := make([]store.Record, n)
	for i := range recs {
		exp := fmt.Sprintf("exp-%04d", 1+i%4)
		ok := rng.Intn(5) != 0
		r := store.Record{
			Experiment: exp,
			TaskID:     fmt.Sprintf("%s-t%06d", exp, i),
			ProbeID:    fmt.Sprintf("pr-%02d", i%8),
			Tick:       int64(1 + i/100),
			Country:    countries[i%len(countries)],
			ASN:        topology.ASN(36900 + i%6),
			Result:     probes.Result{Kind: probes.TaskPing, OK: ok},
		}
		r.Result.TaskID, r.Result.Experiment = r.TaskID, exp
		if ok {
			r.Result.RTTms = 5 + 200*rng.Float64()
		}
		recs[i] = r
	}
	return recs
}

// BenchmarkStoreIngest measures appending 10k results through the
// memtable into sealed on-disk segments (auto-flush at the default
// threshold), ending with an explicit flush so every record is durable.
func BenchmarkStoreIngest(b *testing.B) {
	recs := benchStoreRecords(10000)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < len(recs); j += 500 {
			if err := s.Append(recs[j : j+500]...); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkQueryAggregate measures a grouped time-window aggregation
// over a compacted on-disk store: segment pruning via the sparse index,
// parallel segment scans, and the percentile fold.
func BenchmarkQueryAggregate(b *testing.B) {
	recs := benchStoreRecords(20000)
	s, err := store.Open(b.TempDir(), store.Options{FlushEvery: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for j := 0; j < len(recs); j += 1000 {
		if err := s.Append(recs[j : j+1000]...); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Compact(0); err != nil {
		b.Fatal(err)
	}
	q := store.AggQuery{
		Filter:  store.Filter{FromTick: 50, ToTick: 150},
		GroupBy: store.GroupCountryASN,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Aggregate(q)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Matched == 0 {
			b.Fatal("aggregation matched nothing")
		}
	}
}

// BenchmarkWebstepsRun measures the websteps censorship sweep — every
// African country's top sites through the step-following engine under
// the seeded interference policy — serial and with the default worker
// pool, so the recorded numbers expose the fan-out's speedup.
func BenchmarkWebstepsRun(b *testing.B) {
	env := benchSetup(b)
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel8", 8}} {
		workers := mode.workers
		b.Run(mode.name, func(b *testing.B) {
			prev := par.SetDefaultWorkers(workers)
			defer par.SetDefaultWorkers(prev)
			for i := 0; i < b.N; i++ {
				r := experiments.WebstepsCensorship(env)
				if len(r.Countries) == 0 || r.Policies == 0 {
					b.Fatal("websteps sweep measured nothing")
				}
			}
		})
	}
}

// BenchmarkDNSLoad is the high-QPS target: one million token-bucket
// paced logical queries per iteration through the composable resolver
// chains, with retries and localization accounting. The reported
// queries/s metric is wall-clock throughput of the simulated engine.
func BenchmarkDNSLoad(b *testing.B) {
	env := benchSetup(b)
	var clients []topology.ASN
	var targets []dnsload.Target
	for _, cc := range []string{"NG", "KE", "ZA", "EG", "GH", "SN", "CI", "TZ", "UG", "RW"} {
		clients = append(clients, env.DNS.ClientNetworks(cc)...)
		for i := 0; i < 6; i++ {
			targets = append(targets, dnsload.Target{
				Domain:        fmt.Sprintf("site%d.%s", i, cc),
				OriginCountry: cc,
			})
		}
	}
	const queries = 1_000_000
	cfg := dnsload.Config{
		Seed:       42,
		Queries:    queries,
		QPS:        25_000, // logical pacing: thousands of queries/sec
		Burst:      256,
		CompareECS: true,
		Clients:    clients,
		Targets:    targets,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := dnsload.Run(env.DNS, cfg)
		if rep.OK == 0 || rep.AchievedQPS <= 0 {
			b.Fatalf("load run measured nothing: %+v", rep)
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
}

// BenchmarkTopologyGenerate measures full-world generation.
func BenchmarkTopologyGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewStack(Config{Seed: int64(42 + i), Year: 2025})
		if len(s.Topology.ASNs()) == 0 {
			b.Fatal("empty topology")
		}
	}
}
