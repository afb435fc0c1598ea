package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// genRecords builds a randomized-but-seeded corpus spanning several
// experiments, countries, ASNs, kinds, and ticks.
func genRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	countries := []string{"NG", "KE", "ZA", "RW"}
	kinds := []probes.TaskKind{probes.TaskPing, probes.TaskDNS}
	var out []Record
	for i := 0; i < n; i++ {
		exp := fmt.Sprintf("exp-%04d", 1+rng.Intn(4))
		ok := rng.Intn(4) != 0
		r := Record{
			Experiment: exp,
			TaskID:     fmt.Sprintf("%s-t%04d", exp, i),
			ProbeID:    fmt.Sprintf("pr-%02d", rng.Intn(6)),
			Tick:       int64(1 + rng.Intn(50)),
			Country:    countries[rng.Intn(len(countries))],
			ASN:        topology.ASN(36900 + rng.Intn(4)),
			Result: probes.Result{
				Kind: kinds[rng.Intn(len(kinds))],
				OK:   ok,
			},
		}
		r.Result.TaskID, r.Result.Experiment = r.TaskID, exp
		if ok && rng.Intn(5) != 0 {
			r.Result.RTTms = 5 + 200*rng.Float64()
		}
		out = append(out, r)
	}
	return out
}

// naiveAggregate recomputes an aggregation straight over the raw
// records with none of the store's machinery — the oracle the store's
// Aggregate must match.
func naiveAggregate(recs []Record, q AggQuery) AggReport {
	type bucket struct {
		g    AggGroup
		rtts []float64
	}
	buckets := map[string]*bucket{}
	var keys []string
	matched := int64(0)
	for _, r := range recs {
		if !q.Filter.match(&r) {
			continue
		}
		matched++
		var key string
		g := AggGroup{}
		switch q.GroupBy {
		case GroupCountry:
			key, g.Country = r.Country, r.Country
		case GroupASN:
			key, g.ASN = fmt.Sprintf("%d", r.ASN), r.ASN
		case GroupCountryASN:
			key = fmt.Sprintf("%s/%d", r.Country, r.ASN)
			g.Country, g.ASN = r.Country, r.ASN
		}
		b, ok := buckets[key]
		if !ok {
			b = &bucket{g: g}
			buckets[key] = b
			keys = append(keys, key)
		}
		b.g.Count++
		if r.Result.OK {
			b.g.OK++
			if r.Result.RTTms > 0 {
				b.rtts = append(b.rtts, r.Result.RTTms)
			}
		}
	}
	sort.Strings(keys)
	rep := AggReport{Matched: matched}
	for _, k := range keys {
		b := buckets[k]
		b.g.LossRate = 1 - float64(b.g.OK)/float64(b.g.Count)
		if len(b.rtts) > 0 {
			sort.Float64s(b.rtts)
			sum := 0.0
			for _, v := range b.rtts {
				sum += v
			}
			b.g.RTTCount = int64(len(b.rtts))
			b.g.RTTMean = sum / float64(len(b.rtts))
			rank := func(p float64) float64 {
				i := int(math.Ceil(p / 100 * float64(len(b.rtts))))
				if i < 1 {
					i = 1
				}
				return b.rtts[i-1]
			}
			b.g.RTTP50, b.g.RTTP90, b.g.RTTP99 = rank(50), rank(90), rank(99)
		}
		rep.Groups = append(rep.Groups, b.g)
	}
	return rep
}

// equivalenceQueries is the query mix the equivalence tests run: every
// index dimension, tick windows, and an unindexed field.
var equivalenceQueries = []AggQuery{
	{},
	{GroupBy: GroupCountry},
	{GroupBy: GroupASN},
	{GroupBy: GroupCountryASN},
	{Filter: Filter{Experiment: "exp-0002"}, GroupBy: GroupCountry},
	{Filter: Filter{Country: "KE"}, GroupBy: GroupASN},
	{Filter: Filter{ASN: 36901}, GroupBy: GroupCountry},
	{Filter: Filter{FromTick: 10, ToTick: 30}, GroupBy: GroupCountryASN},
	{Filter: Filter{Kind: string(probes.TaskDNS)}},
}

// TestQueryEquivalence checks, across seeds, that the store's
// aggregations match a naive fold over the raw records, and that
// serial (1 worker) and parallel (8 workers) scans are deep-equal.
func TestQueryEquivalence(t *testing.T) {
	queries := equivalenceQueries
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			raw := genRecords(seed, 500)
			s, err := Open(t.TempDir(), Options{FlushEvery: 32, TargetFrames: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Append(raw...); err != nil {
				t.Fatal(err)
			}
			// Append assigned seqs in place; run part of the corpus
			// through compaction so queries cross merged segments too.
			if err := s.Compact(0); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				q := q
				want := naiveAggregate(raw, q)
				got, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("aggregate %+v diverged from naive oracle\nwant: %+v\ngot:  %+v", q, want, got)
				}

				prev := par.SetDefaultWorkers(1)
				serial, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				serialScan, _, serr := s.ScanPage(q.Filter, 0, "")
				par.SetDefaultWorkers(8)
				parallel, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				parScan, _, perr := s.ScanPage(q.Filter, 0, "")
				par.SetDefaultWorkers(prev)
				if serr != nil || perr != nil {
					t.Fatal(serr, perr)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("serial vs parallel aggregate diverged for %+v", q)
				}
				if !reflect.DeepEqual(serialScan, parScan) {
					t.Fatalf("serial vs parallel scan diverged for %+v", q)
				}
			}
		})
	}
}

// TestVerdictAggregation ingests websteps-style records (verdict +
// resolver class set) and checks the censorship cuts: filtering by
// verdict, and bucketing by verdict, resolver class, and
// country/resolver with per-bucket verdict counts.
func TestVerdictAggregation(t *testing.T) {
	s := NewMemory(Options{})
	mk := func(i int, ctry, resolver, verdict string) Record {
		id := fmt.Sprintf("ws-t%02d", i)
		return Record{
			Experiment: "websteps",
			TaskID:     id,
			ProbeID:    "pr-01",
			Tick:       int64(i),
			Country:    ctry,
			ASN:        36900,
			Result: probes.Result{
				TaskID: id, Experiment: "websteps",
				Kind: probes.TaskWebsteps, OK: true,
				Verdict: verdict, ResolverKind: resolver,
			},
		}
	}
	recs := []Record{
		mk(1, "RW", "same-country", "dns_blocked"),
		mk(2, "RW", "same-country", "dns_blocked"),
		mk(3, "RW", "other-country", "ok"),
		mk(4, "KE", "same-country", "throttled"),
		mk(5, "KE", "other-country", "ok"),
	}
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}

	got, err := s.Aggregate(AggQuery{Filter: Filter{Verdict: "dns_blocked"}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Matched != 2 {
		t.Fatalf("verdict filter matched %d, want 2", got.Matched)
	}

	byVerdict, err := s.Aggregate(AggQuery{GroupBy: GroupVerdict})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, g := range byVerdict.Groups {
		counts[g.Verdict] = g.Count
	}
	want := map[string]int64{"dns_blocked": 2, "ok": 2, "throttled": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("verdict buckets = %v, want %v", counts, want)
	}

	byResolver, err := s.Aggregate(AggQuery{GroupBy: GroupResolver})
	if err != nil {
		t.Fatal(err)
	}
	if len(byResolver.Groups) != 2 {
		t.Fatalf("resolver buckets = %+v, want 2 groups", byResolver.Groups)
	}
	for _, g := range byResolver.Groups {
		if g.Resolver == "same-country" && g.Verdicts["dns_blocked"] != 2 {
			t.Fatalf("same-country bucket verdicts = %v", g.Verdicts)
		}
	}

	cross, err := s.Aggregate(AggQuery{GroupBy: GroupCountryResolver})
	if err != nil {
		t.Fatal(err)
	}
	if len(cross.Groups) != 4 {
		t.Fatalf("country/resolver buckets = %+v, want 4 groups", cross.Groups)
	}
	for _, g := range cross.Groups {
		if g.Country == "RW" && g.Resolver == "same-country" {
			if g.Count != 2 || g.Verdicts["dns_blocked"] != 2 {
				t.Fatalf("RW/same-country bucket = %+v", g)
			}
		}
	}
}

func TestAggregateRejectsUnknownGroupBy(t *testing.T) {
	s := NewMemory(Options{})
	if _, err := s.Aggregate(AggQuery{GroupBy: "continent"}); err == nil {
		t.Fatal("unknown group_by accepted")
	}
}
