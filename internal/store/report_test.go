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

// TestSealedReportMergesExactly holds a report over the sealed fold and
// a memtable to the exact path, byte for byte, and to the oracle, over the
// order corpus in every store shape: after the first half of its memtable,
// whose read merges the sealed fold and keeps each group_by's report, and
// after the second, whose reports splice what the first kept of the
// groups it left alone. Summing a group's samples in merge order, or
// splicing a touched group, fails it.
func TestSealedReportMergesExactly(t *testing.T) {
	sealed, tail := orderCorpus()
	half := len(tail) / 2
	for _, shape := range memoShapes {
		t.Run(shape.name, func(t *testing.T) {
			read := func(withMemos bool) ([]byte, *Store) {
				foldMemos = withMemos
				defer func() { foldMemos = true }()
				s := shape.build(t, sealed, tail[:half])
				out := append(foldsJSON(t, s, []Filter{{}}), reportsJSON(t, s, Filter{})...)
				appendChunks(t, s, tail[half:], 8)
				return append(append(out, foldsJSON(t, s, []Filter{{}})...), reportsJSON(t, s, Filter{})...), s
			}
			got, s := read(true)
			if ctr := s.Counters(); s.MemtableLen() != len(tail) || ctr["sealed_fold_hits"] == 0 || ctr["report_groups_reused"] == 0 || ctr["report_groups_finished"] == 0 {
				t.Fatalf("%d records in the memtable, counters %v: the sealed fold or the kept reports were not read", s.MemtableLen(), ctr)
			}
			want, _ := read(false)
			if string(got) != string(want) {
				t.Fatalf("reports over the sealed fold differ from the exact path's:\n%s\nwant:\n%s", got, want)
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

// reportsJSON writes, per group_by, the report of a store's fold as
// AppendReport writes it, from the store's last report of filter
// (mustFold).
func reportsJSON(t *testing.T, s *Store, filter Filter) []byte {
	t.Helper()
	var out []byte
	for _, gb := range GroupByModes {
		out = append(append(out, mustFold(t, s, AggQuery{Filter: filter, GroupBy: gb})...), '\n')
	}
	return out
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
// aggregate merges one sealed fold and every other one is written from
// the store's last report of its group_by; meaningful under -race. Each
// report must be the exact path's over the records appended so far, which
// its matched count names.
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
	marshal := func(rep AggReport) []byte {
		body, _ := json.Marshal(rep) // finite: cannot fail
		return body
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
				fold, err := s.Fold(AggQuery{GroupBy: gb})
				if err != nil {
					t.Error(err)
					return
				}
				w, ok := want[gb][fold.Matched]
				if i%2 == 0 {
					if rep := fold.Report(); !ok || !reflect.DeepEqual(rep, w) {
						t.Errorf("group %q, %d matched:\n got  %+v\n want %+v", gb, fold.Matched, rep, w)
						return
					}
				} else if got, _ := fold.AppendReport(nil); !ok || string(got) != string(marshal(w)) {
					t.Errorf("group %q, %d matched:\n got  %s\n want %s", gb, fold.Matched, got, marshal(w))
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
	if ctr := s.Counters(); s.SegmentCount() == 0 || s.MemtableLen() != len(tail) || ctr["sealed_summary_builds"] != 1 ||
		ctr["sealed_fold_hits"] < reads.Load() || ctr["report_groups_reused"] == 0 || ctr["report_groups_finished"] == 0 {
		t.Fatalf("%d segments, %d records in the memtable, %d reads, counters %v: want one sealed summary, read by every aggregate, and kept reports spliced",
			s.SegmentCount(), s.MemtableLen(), reads.Load(), ctr)
	}
}

// TestReportMemoIsCharged: a disk store's kept reports are charged to
// the segment cache's budget beside its sealed summary, each at least the
// length of its encodings; a report kept in place of another is charged
// what it holds less what that one held, and the charge survives a flush,
// as the summary's does until a read derives the next summary. What the
// cache is charged is, at every step, what the summary and the kept
// reports say.
func TestReportMemoIsCharged(t *testing.T) {
	s := openDup(t, t.TempDir())
	appendChunks(t, s, memoCorpus(264), 8) // 8 segments of 32, 8 records in the memtable
	records := func(bytes int64) int64 { return (bytes + cachedRecordBytes - 1) / cachedRecordBytes }
	memo := s.memos[GroupCountryASN]
	check := func(step string, summary int64) {
		t.Helper()
		s.cache.mu.Lock()
		got := s.cache.charged
		s.cache.mu.Unlock()
		if n := s.Counters()["segment_fold_records"]; n != s.cache.charged {
			t.Fatalf("%s: segment_fold_records reports %d, the cache is charged %d", step, n, s.cache.charged)
		}
		want := summary
		if r := memo.last.Load(); r != nil {
			want += r.charged
		}
		if got != want {
			t.Fatalf("%s: the cache is charged %d records, want %d (%d for the summary)", step, got, want, summary)
		}
	}
	if _, _, err := s.ScanPage(Filter{}, 0, ""); err != nil { // builds the summary: its keys alone
		t.Fatal(err)
	}
	keys := records(int64(8 * len(s.sum.keys)))
	check("the summary's keys", keys)
	body := mustFold(t, s, AggQuery{GroupBy: GroupCountryASN})
	fold := s.sum.folds[GroupCountryASN]
	summary := keys + records(foldBytes(fold.Groups)+64*int64(len(fold.base)))
	check("a report", summary)
	if r := memo.last.Load(); r.charged < records(int64(len(body))) {
		t.Fatalf("the kept report is charged %d records, less than its %d B body", r.charged, len(body))
	}
	appendChunks(t, s, memoCorpus(300)[264:], 4) // more records: a longer report
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("a flush", summary)
	mustFold(t, s, AggQuery{GroupBy: GroupCountryASN})
	mustFold(t, s, AggQuery{GroupBy: GroupCountryASN})
	fold = s.sum.folds[GroupCountryASN]
	check("two more reports", records(int64(8*len(s.sum.keys)))+records(foldBytes(fold.Groups)+64*int64(len(fold.base))))
}

// TestSplicedReportIsReport holds Folder.AppendReport, which splices the
// encodings the store's last report of a query keeps, to
// Report().AppendJSON byte for byte and to the oracle's JSON (less
// verdicts, which it does not count), over the order corpus in every
// store shape, for every group_by and for filters that cover every sealed
// run and ones that do not: read before the memtable holds a record and
// after each half of it. Each (filter, group_by) is read twice in a row,
// and the second read must write the same bytes and finish no group.
// Splicing a touched group's kept bytes, or those of the group at the same
// place in the report instead of the same group, fails it. A group whose
// mean overflows to an infinity is refused by both, and nothing is kept
// of the report, whose response is then an error.
func TestSplicedReportIsReport(t *testing.T) {
	sealed, tail := orderCorpus()
	filters := []Filter{{}, {FromTick: 1}, {Experiment: "exp-0001"}, {Country: "MA"}, {ToTick: 9}, {Kind: string(probes.TaskPing)}}
	read := func(t *testing.T, s *Store, recs []Record) {
		t.Helper()
		for _, f := range filters {
			for _, gb := range allGroupBys {
				q := AggQuery{Filter: f, GroupBy: gb}
				fold, err := s.Fold(q)
				if err != nil {
					t.Fatal(err)
				}
				rep := fold.Report()
				got, ok := fold.AppendReport(nil)
				want, wantOK := rep.AppendJSON(nil)
				if !ok || !wantOK || string(got) != string(want) {
					t.Fatalf("group %q, filter %+v: spliced (ok %v)\n%s\nreport (ok %v)\n%s", gb, f, ok, got, wantOK, want)
				}
				before := s.Counters()
				if again := mustFold(t, s, q); string(again) != string(got) {
					t.Fatalf("group %q, filter %+v: read again\n%s\nfirst\n%s", gb, f, again, got)
				}
				after := s.Counters()
				if reused, finished := after["report_groups_reused"]-before["report_groups_reused"], after["report_groups_finished"]-before["report_groups_finished"]; reused != int64(len(rep.Groups)) || finished != 0 {
					t.Fatalf("group %q, filter %+v: read again, %d of %d groups spliced and %d finished", gb, f, reused, len(rep.Groups), finished)
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
	}
	for _, shape := range memoShapes {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.build(t, sealed, nil)
			read(t, s, sealed)
			for n, half := 0, len(tail)/2; n < len(tail); n += half {
				appendChunks(t, s, tail[n:n+half], 4)
				read(t, s, append(sealed[:len(sealed):len(sealed)], tail[:n+half]...))
			}
			if s.MemtableLen() != len(tail) {
				t.Fatalf("%d records in the memtable, want %d", s.MemtableLen(), len(tail))
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
				before := s.Counters()
				fold, err := s.Fold(AggQuery{Filter: f, GroupBy: gb})
				if err != nil {
					t.Fatal(err)
				}
				rep := fold.Report()
				got, ok := fold.AppendReport(nil)
				want, wantOK := rep.AppendJSON(nil)
				after := s.Counters()
				counted := after["report_groups_reused"]+after["report_groups_finished"] != before["report_groups_reused"]+before["report_groups_finished"]
				if refused := f.Country == ""; ok == refused || wantOK == refused || counted == refused || !refused && string(got) != string(want) || big != 2 {
					t.Fatalf("group %q, filter %+v: spliced ok %v, report ok %v, %d samples set, kept %v:\n%s\nwant\n%s",
						gb, f, ok, wantOK, big, counted, got, want)
				}
			}
		}
	})
}

// mustFold is a store's aggregate q as AppendReport writes it, which
// must be Report().AppendJSON's bytes.
func mustFold(t *testing.T, s *Store, q AggQuery) []byte {
	t.Helper()
	fold, err := s.Fold(q)
	if err != nil {
		t.Fatal(err)
	}
	rep := fold.Report()
	want, wantOK := rep.AppendJSON(nil)
	body, ok := fold.AppendReport(nil)
	if !ok || !wantOK || string(body) != string(want) {
		t.Fatalf("%+v: spliced (ok %v)\n%s\nreport (ok %v)\n%s", q, ok, body, wantOK, want)
	}
	return body
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
