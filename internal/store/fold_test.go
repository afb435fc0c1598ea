package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// allGroupBys is every aggregation mode, the empty one included.
var allGroupBys = []string{"", GroupNone, GroupCountry, GroupASN, GroupCountryASN,
	GroupVerdict, GroupResolver, GroupCountryResolver, GroupResolverChain, GroupECS}

// genFoldRecords builds a seeded corpus that exercises everything a
// Folder keeps: pings with and without an RTT, failures, websteps
// verdicts under resolver classes, dnsload chains with and without ECS.
func genFoldRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	countries := []string{"NG", "KE", "ZA", "RW", "SN"}
	verdicts := []string{"ok", "dns_blocked", "tcp_blocked", "throttled"}
	resolvers := []string{"same-country", "other-country", "cloud"}
	chains := []string{"stub>cache>cloud>authority", "stub>cache>forwarder>authority", "stub>authority"}
	asns := []topology.ASN{9, 100, 2905, 36900, 36901, 64500} // the report orders them as strings
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Record{
			Seq:        uint64(i + 1),
			Experiment: "exp-0001",
			TaskID:     fmt.Sprintf("t%05d", i),
			Tick:       int64(1 + rng.Intn(20)),
			Country:    countries[rng.Intn(len(countries))],
			ASN:        asns[rng.Intn(len(asns))],
			Result:     probes.Result{OK: rng.Intn(5) != 0},
		}
		switch rng.Intn(3) {
		case 0:
			r.Result.Kind = probes.TaskPing
		case 1:
			r.Result.Kind = probes.TaskWebsteps
			r.Result.Verdict = verdicts[rng.Intn(len(verdicts))]
			r.Result.ResolverKind = resolvers[rng.Intn(len(resolvers))]
		case 2:
			r.Result.Kind = probes.TaskDNSLoad
			r.Result.ResolverChain = chains[rng.Intn(len(chains))]
			r.Result.ECS = rng.Intn(2) == 0
		}
		if rng.Intn(4) != 0 { // failures may carry an RTT too: the fold must ignore it
			r.Result.RTTms = 1 + 300*rng.Float64()
		}
		out = append(out, r)
	}
	return out
}

func foldOf(t testing.TB, groupBy string, recs []Record) *Folder {
	t.Helper()
	f, err := NewFolder(groupBy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		f.Add(&recs[i])
	}
	return f
}

// splitRandom deals recs into parts disjoint sets (some possibly empty).
func splitRandom(rng *rand.Rand, recs []Record, parts int) [][]Record {
	out := make([][]Record, parts)
	for _, r := range recs {
		i := rng.Intn(parts)
		out[i] = append(out[i], r)
	}
	return out
}

// TestFolderMergeIsExact is the exactness argument of DESIGN.md
// "Scatter-gather queries" as a property: however a record set is split
// into disjoint parts, and in whatever order the parts' folds are merged,
// the report is the one fold's over the whole set, field for field —
// in process, and with every part sent through its op=fold JSON form.
func TestFolderMergeIsExact(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		recs := genFoldRecords(seed, 300+rng.Intn(400))
		for _, gb := range allGroupBys {
			want := foldOf(t, gb, recs).Report()
			if want.Matched != int64(len(recs)) || len(want.Groups) == 0 {
				t.Fatalf("seed %d group %q: the single fold reports %d matched in %d groups", seed, gb, want.Matched, len(want.Groups))
			}
			for _, overWire := range []bool{false, true} {
				parts := splitRandom(rng, recs, 1+rng.Intn(6))
				rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
				merged, err := NewFolder(gb)
				if err != nil {
					t.Fatal(err)
				}
				for _, part := range parts {
					f := foldOf(t, gb, part)
					if overWire {
						f = viaJSON(t, f)
					}
					if err := merged.Merge(f); err != nil {
						t.Fatal(err)
					}
				}
				if got := merged.Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d group %q, %d parts, over the wire %v: merged report diverges\n got  %+v\n want %+v",
						seed, gb, len(parts), overWire, got, want)
				}
			}
		}
	}
}

// viaJSON sends a fold through its wire form.
func viaJSON(t testing.TB, f *Folder) *Folder {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	out := new(Folder)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFoldWireFormIsLossless: a decoded partial holds what the encoded
// one held — every count, verdict map and RTT sample bit for bit — and
// reports what it would have reported in process.
func TestFoldWireFormIsLossless(t *testing.T) {
	recs := genFoldRecords(11, 500)
	for _, gb := range allGroupBys {
		f := foldOf(t, gb, recs)
		back := viaJSON(t, f)
		if back.GroupBy != f.GroupBy || back.Matched != f.Matched || !reflect.DeepEqual(back.Groups, f.Groups) {
			t.Fatalf("group %q: the wire form lost something:\n sent %+v\n got  %+v", gb, f, back)
		}
		if got, want := back.Report(), foldOf(t, gb, recs).Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("group %q: a decoded fold reports differently:\n got  %+v\n want %+v", gb, got, want)
		}
	}
}

func TestMergeRejectsAnotherGrouping(t *testing.T) {
	a, b := foldOf(t, GroupCountry, nil), foldOf(t, GroupASN, genFoldRecords(1, 10))
	if err := a.Merge(b); err == nil {
		t.Fatal("a fold grouped by asn merged into one grouped by country")
	}
	if a.Matched != 0 || len(a.Groups) != 0 {
		t.Fatalf("the refused merge left %d matched, %d groups behind", a.Matched, len(a.Groups))
	}
	// "" and "none" are one mode, on either side of the wire.
	if err := foldOf(t, "", nil).Merge(viaJSON(t, foldOf(t, GroupNone, genFoldRecords(1, 10)))); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFoldIsAggregateBeforeReport: the store's two entry points read
// the same records.
func TestStoreFoldIsAggregateBeforeReport(t *testing.T) {
	s := NewMemory(Options{})
	raw := genRecords(5, 400)
	if err := s.Append(raw...); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivalenceQueries {
		want, err := s.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.Fold(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Fold().Report() diverges from Aggregate()", q)
		}
	}
	if _, err := s.Fold(AggQuery{GroupBy: "continent"}); err == nil {
		t.Fatal("unknown group_by accepted")
	}
}

// BenchmarkFolderMerge is the coordinator's share of a federated
// aggregate: four shards' partial folds of 1 600 records each, merged in
// one call, as Coordinator.Fold merges them, and reported.
func BenchmarkFolderMerge(b *testing.B) {
	recs := genRecords(1, 6400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		parts := make([]*Folder, 4)
		for p := range parts {
			parts[p] = foldOf(b, GroupCountryASN, recs[p*1600:(p+1)*1600])
		}
		b.StartTimer()
		merged, _ := NewFolder(GroupCountryASN)
		if err := merged.Merge(parts...); err != nil {
			b.Fatal(err)
		}
		benchSink += len(merged.Report().Groups)
	}
}
