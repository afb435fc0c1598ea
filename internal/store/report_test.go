package store

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// TestReportLeavesItsFoldAlone: Report reads its fold and changes none of
// it. For every group_by, a store's fold (sealed runs and a memtable) and
// a coordinator-style merge of it with another fold print the same JSON
// before and after their reports.
func TestReportLeavesItsFoldAlone(t *testing.T) {
	recs := memoCorpus(376)
	s := openDup(t, t.TempDir())
	appendChunks(t, s, recs, 8)
	if s.SegmentCount() == 0 || s.MemtableLen() == 0 {
		t.Fatalf("%d segments and %d records in the memtable, want both", s.SegmentCount(), s.MemtableLen())
	}
	for _, gb := range GroupByModes {
		fold, err := s.Fold(AggQuery{GroupBy: gb})
		if err != nil {
			t.Fatal(err)
		}
		merged, _ := NewFolder(gb)
		for _, part := range []*Folder{fold, foldOf(t, gb, genFoldRecords(9, 200))} {
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		for name, f := range map[string]*Folder{"store": fold, "merged": merged} {
			before, _ := json.Marshal(f)
			f.Report()
			if after, _ := json.Marshal(f); string(after) != string(before) {
				t.Fatalf("group %q, %s fold: Report changed it:\n%s\nwas:\n%s", gb, name, after, before)
			}
		}
	}
}

// orderCorpus is a sealed part and a memtable whose RTT sums depend on the
// order they are summed in: samples span 1e-3 to 1e16, so a small one
// added after a large one is lost. The memtable reaches some of the sealed
// groups, starts groups whose keys sort between sealed ones (country KE
// between BJ and MA, ASN 200 between 100 and 300) and leaves the rest
// (country ZA, ASN 500) alone.
func orderCorpus() (sealed, tail []Record) {
	rng := rand.New(rand.NewSource(17))
	recs := genFoldRecords(17, 280)
	for i := range recs {
		r := &recs[i]
		countries, asns := []string{"BJ", "MA", "ZA"}, []topology.ASN{100, 300, 500}
		if i >= 256 {
			countries, asns = []string{"KE", "MA"}, []topology.ASN{200, 300}
		}
		r.Country, r.ASN = countries[rng.Intn(len(countries))], asns[rng.Intn(len(asns))]
		r.Tick = int64(1 + i/16)
		if r.Result.RTTms > 0 {
			r.Result.RTTms *= []float64{1e-3, 1, 1e3, 1e16}[rng.Intn(4)]
		}
	}
	return recs[:256], recs[256:]
}

// TestSealedReportMergesExactly holds a report that reuses the sealed
// summary's finished report to the exact path, byte for byte, and to the
// oracle, over the order corpus in every store shape: after the first
// half of its memtable, whose read builds the sealed report, and after
// the second, which reuses it. Summing a touched group's samples in merge
// order, reusing its sealed AggGroup, or placing new groups after the
// sealed ones instead of among them each fails it.
func TestSealedReportMergesExactly(t *testing.T) {
	sealed, tail := orderCorpus()
	half := len(tail) / 2
	for _, shape := range memoShapes {
		t.Run(shape.name, func(t *testing.T) {
			read := func(withMemos bool) ([]byte, *Store) {
				foldMemos = withMemos
				defer func() { foldMemos = true }()
				s := shape.build(t, sealed, tail[:half])
				out := foldsJSON(t, s, []Filter{{}})
				appendChunks(t, s, tail[half:], 8)
				return append(out, foldsJSON(t, s, []Filter{{}})...), s
			}
			got, s := read(true)
			if s.MemtableLen() != len(tail) || s.Counters()["sealed_report_builds"] == 0 {
				t.Fatalf("%d records in the memtable, counters %v: the sealed report was not read", s.MemtableLen(), s.Counters())
			}
			want, _ := read(false)
			if string(got) != string(want) {
				t.Fatalf("reports with the sealed report differ from the exact path's:\n%s\nwant:\n%s", got, want)
			}
			for _, gb := range []string{GroupNone, GroupCountry, GroupASN, GroupCountryASN} {
				q := AggQuery{GroupBy: gb}
				rep, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				for i := range rep.Groups {
					rep.Groups[i].Verdicts = nil // the oracle does not count verdicts
				}
				if want := naiveAggregate(append(sealed, tail...), q); !reflect.DeepEqual(rep, want) {
					t.Fatalf("group %q:\n got  %+v\n want %+v", gb, rep, want)
				}
			}
		})
	}
}

// TestMergeIntoEmptyKeepsGroupsApart: a Merge into an empty Folder lays
// every group's samples side by side in one slab, so a group that grows
// after it, by Add or by Merge, must not spill into its neighbour's.
func TestMergeIntoEmptyKeepsGroupsApart(t *testing.T) {
	recs := genFoldRecords(5, 400)
	for _, gb := range allGroupBys {
		f, _ := NewFolder(gb)
		if err := f.Merge(foldOf(t, gb, recs)); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			f.Add(&recs[i])
		}
		if err := f.Merge(foldOf(t, gb, recs)); err != nil {
			t.Fatal(err)
		}
		want := foldOf(t, gb, append(append(recs[:len(recs):len(recs)], recs...), recs...))
		if f.Matched != want.Matched || !reflect.DeepEqual(f.Groups, want.Groups) {
			t.Fatalf("group %q: merged, added and merged again:\n got  %+v\n want %+v", gb, f.Groups, want.Groups)
		}
	}
}

// TestSealedReportRaceAppends runs aggregates of a repeat-free store
// beside appends that reach its sealed groups, without a flush, so every
// aggregate reuses one sealed report; meaningful under -race. Each report
// must be the exact path's over the records appended so far, which its
// matched count names.
func TestSealedReportRaceAppends(t *testing.T) {
	raw := memoCorpus(352)
	sealed, tail := raw[:256], raw[256:]
	s, err := Open(t.TempDir(), Options{TargetFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChunks(t, s, sealed, 32)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[int64]AggReport{}
	for _, gb := range GroupByModes {
		want[gb] = map[int64]AggReport{}
		for n := len(sealed); n <= len(raw); n += 4 {
			want[gb][int64(n)] = foldOf(t, gb, raw[:n]).Report()
		}
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Int64
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				gb := GroupByModes[i%len(GroupByModes)]
				rep, err := s.Aggregate(AggQuery{GroupBy: gb})
				if err != nil {
					t.Error(err)
					return
				}
				if w, ok := want[gb][rep.Matched]; !ok || !reflect.DeepEqual(rep, w) {
					t.Errorf("group %q, %d matched:\n got  %+v\n want %+v", gb, rep.Matched, rep, w)
					return
				}
				reads.Add(1)
			}
		}(g)
	}
	for i := 0; i < len(tail) && !t.Failed(); i += 4 {
		for reads.Load() < int64(i) && !t.Failed() { // a few reads between appends
			runtime.Gosched()
		}
		if err := s.Append(tail[i : i+4]...); err != nil {
			t.Error(err)
		}
	}
	close(done)
	readers.Wait()
	if ctr := s.Counters(); s.SegmentCount() == 0 || s.MemtableLen() != len(tail) || ctr["sealed_report_builds"] != int64(len(GroupByModes)) {
		t.Fatalf("%d segments, %d records in the memtable, counters %v: want one sealed report per group_by",
			s.SegmentCount(), s.MemtableLen(), ctr)
	}
}

// TestSealedReportIsCharged: the sealed report is built once per segment
// set and group_by, counted in sealed_report_builds, charged with its fold
// and its groups' encodings (at least their length) to the segment cache's
// budget, and its charge goes when a flush drops the summary.
func TestSealedReportIsCharged(t *testing.T) {
	s := openDup(t, t.TempDir())
	appendChunks(t, s, memoCorpus(264), 8) // 8 segments of 32, 8 records in the memtable
	summaryCharge := func() int64 {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		n := s.cache.charged
		for el := s.cache.lru.Front(); el != nil; el = el.Next() {
			n -= el.Value.(*cacheEntry).charged
		}
		if got := s.Counters()["segment_fold_records"]; got != s.cache.charged {
			t.Fatalf("segment_fold_records reports %d, the cache is charged %d", got, s.cache.charged)
		}
		return n
	}
	aggregate := func(builds int64) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if _, err := s.Aggregate(AggQuery{GroupBy: GroupCountryASN}); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Counters()["sealed_report_builds"]; got != builds {
			t.Fatalf("sealed_report_builds %d, want %d", got, builds)
		}
	}
	if _, _, err := s.ScanPage(Filter{}, 0, ""); err != nil { // builds the summary: its keys alone
		t.Fatal(err)
	}
	keys := summaryCharge()
	aggregate(1)
	fold := s.sum.folds[GroupCountryASN]
	bare, unencoded := *fold, *fold
	bare.sealed = nil
	noEnc := *fold.sealed
	noEnc.enc, unencoded.sealed = make([][]byte, len(noEnc.enc)), &noEnc
	kept := int64(0)
	for _, enc := range fold.sealed.enc {
		kept += int64(len(enc))
	}
	records := func(bytes int64) int64 { return (bytes + cachedRecordBytes - 1) / cachedRecordBytes }
	if got, want := summaryCharge(), keys+records(foldBytes(fold)); got != want || foldBytes(&bare) >= foldBytes(&unencoded) ||
		kept == 0 || foldBytes(fold)-foldBytes(&unencoded) < kept {
		t.Fatalf("the summary is charged %d records, want %d (%d B with the report, %d B without, %d B without its %d B of encodings)",
			got, want, foldBytes(fold), foldBytes(&bare), foldBytes(&unencoded), kept)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := summaryCharge(); got != 0 {
		t.Fatalf("after a flush the dropped summary is still charged %d records", got)
	}
	aggregate(2)
}

// TestSplicedReportIsReport holds Folder.AppendReport, which splices the
// encodings the sealed report keeps, to Report().AppendJSON byte for byte
// and to the oracle's JSON (less verdicts, which it does not count), over
// the order corpus in every store shape, for every group_by and for
// filters that cover every sealed run and ones that do not: read before
// the memtable holds a record and after each half of it. Splicing a
// touched group's kept bytes, or those of the group at the same place in
// the report instead of the same sealed group, fails it. A group whose
// mean overflows to an infinity is refused by both, so the response falls
// back to encoding/json.
func TestSplicedReportIsReport(t *testing.T) {
	sealed, tail := orderCorpus()
	filters := []Filter{{}, {FromTick: 1}, {Experiment: "exp-0001"}, {Country: "MA"}, {ToTick: 9}, {Kind: string(probes.TaskPing)}}
	read := func(t *testing.T, s *Store, recs []Record) (spliced int) {
		t.Helper()
		for _, f := range filters {
			for _, gb := range allGroupBys {
				q := AggQuery{Filter: f, GroupBy: gb}
				fold, err := s.Fold(q)
				if err != nil {
					t.Fatal(err)
				}
				if fold.sealed != nil {
					spliced++
				}
				rep := fold.Report()
				got, ok := fold.AppendReport(nil)
				want, wantOK := rep.AppendJSON(nil)
				if !ok || !wantOK || string(got) != string(want) {
					t.Fatalf("group %q, filter %+v: spliced (ok %v)\n%s\nreport (ok %v)\n%s", gb, f, ok, got, wantOK, want)
				}
				if gb != "" && gb != GroupNone && gb != GroupCountry && gb != GroupASN && gb != GroupCountryASN {
					continue // the oracle groups by these alone
				}
				var back AggReport
				if err := json.Unmarshal(got, &back); err != nil {
					t.Fatal(err)
				}
				for i := range back.Groups {
					back.Groups[i].Verdicts = nil
				}
				if g, w := mustJSON(t, back), mustJSON(t, naiveAggregate(recs, q)); g != w {
					t.Fatalf("group %q, filter %+v: spliced\n%s\noracle\n%s", gb, f, g, w)
				}
			}
		}
		return spliced
	}
	for _, shape := range memoShapes {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.build(t, sealed, nil)
			spliced := read(t, s, sealed)
			for n, half := 0, len(tail)/2; n < len(tail); n += half {
				appendChunks(t, s, tail[n:n+half], 4)
				spliced += read(t, s, append(sealed[:len(sealed):len(sealed)], tail[:n+half]...))
			}
			if s.MemtableLen() != len(tail) || spliced < 3*3*len(allGroupBys) {
				t.Fatalf("%d records in the memtable, %d reads over a sealed report: want %d and at least %d",
					s.MemtableLen(), spliced, len(tail), 3*3*len(allGroupBys))
			}
		})
	}
	t.Run("infinite mean", func(t *testing.T) {
		sealed := slices.Clone(sealed)
		big, first := 0, -1 // two alike samples whose sum overflows, in ZA/500, which the memtable leaves alone
		for i := range sealed {
			if sealed[i].Country == "ZA" && sealed[i].ASN == 500 && big < 2 {
				if first < 0 {
					first = i
				}
				sealed[i].Result = sealed[first].Result
				sealed[i].Result.OK, sealed[i].Result.RTTms, big = true, math.MaxFloat64, big+1
			}
		}
		s := memoShapes[0].build(t, sealed, tail)
		for _, gb := range allGroupBys {
			for _, f := range []Filter{{}, {Country: "MA"}} {
				fold, err := s.Fold(AggQuery{Filter: f, GroupBy: gb})
				if err != nil {
					t.Fatal(err)
				}
				rep := fold.Report()
				got, ok := fold.AppendReport(nil)
				want, wantOK := rep.AppendJSON(nil)
				if refused := f.Country == ""; ok == refused || wantOK == refused || !refused && string(got) != string(want) || big != 2 || refused && fold.sealed == nil {
					t.Fatalf("group %q, filter %+v: spliced ok %v, report ok %v, %d samples set, sealed report %v:\n%s\nwant\n%s",
						gb, f, ok, wantOK, big, fold.sealed != nil, got, want)
				}
			}
		}
	})
}

// mustJSON is v as encoding/json writes it.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
