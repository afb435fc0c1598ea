package store

import (
	"slices"
	"testing"

	"github.com/afrinet/observatory/internal/topology"
)

// TestReportMemoSplicesOnlyWhatItHolds: a report that remembers the last
// one of its query (Folder.Remember) writes what Report().AppendJSON
// writes, byte for byte, and splices exactly the groups whose merged
// contents the kept report holds. For every group_by, over a coordinator's
// merge of two parts: a repeat splices every group; a sample changed in
// place (same counts) and a verdict changed in place each finish the
// groups the record left and joined; a record in a group whose key sorts
// first finishes that group alone, every other group moving one place
// down the report; a report of another filter splices nothing.
func TestReportMemoSplicesOnlyWhatItHolds(t *testing.T) {
	base := genFoldRecords(23, 600)
	sample := slices.IndexFunc(base, func(r Record) bool { return r.Result.OK && r.Result.RTTms > 0 })
	verdict := slices.IndexFunc(base, func(r Record) bool { return r.Result.Verdict != "" && r.Result.Verdict != "ok" })
	first := Record{Experiment: "exp-0001", TaskID: "first", Tick: 1, Country: "AA", ASN: 1}
	first.Result.OK, first.Result.RTTms, first.Result.Verdict = true, 7, "aa"
	first.Result.ResolverKind, first.Result.ResolverChain = "aa", "aa"
	for _, gb := range allGroupBys {
		t.Run(gb, func(t *testing.T) {
			reused, finished := -1, -1
			m := &ReportMemo{Count: func(r, f int) { reused, finished = r, f }}
			keyOf := func(r Record) GroupKey { return foldOf(t, gb, []Record{r}).Groups[0].GroupKey }
			// report merges recs' two parts, as a coordinator merges its
			// shards' folds, and checks its body and what it spliced.
			report := func(name string, filter Filter, recs []Record, changed map[GroupKey]bool) {
				t.Helper()
				f, _ := NewFolder(gb)
				if err := f.Merge(foldOf(t, gb, recs[:len(recs)/3]), foldOf(t, gb, recs[len(recs)/3:])); err != nil {
					t.Fatal(err)
				}
				rep := f.Report()
				want, wantOK := rep.AppendJSON(nil)
				f.Remember(m, filter)
				got, ok := f.AppendReport(nil)
				if !ok || !wantOK || string(got) != string(want) {
					t.Fatalf("%s: remembered (ok %v)\n%s\nreport (ok %v)\n%s", name, ok, got, wantOK, want)
				}
				wantFinished := len(changed)
				if changed == nil {
					wantFinished = len(f.Groups)
				}
				if reused != len(f.Groups)-wantFinished || finished != wantFinished {
					t.Fatalf("%s: %d of %d groups spliced and %d finished, want %d finished", name, reused, len(f.Groups), finished, wantFinished)
				}
			}
			report("the first", Filter{}, base, nil)
			report("a repeat", Filter{}, base, map[GroupKey]bool{})
			recs := slices.Clone(base)
			recs[sample].Result.RTTms *= 3
			report("a sample changed", Filter{}, recs, map[GroupKey]bool{keyOf(recs[sample]): true})
			recs = slices.Clone(base)
			recs[verdict].Result.Verdict = "ok"
			report("a verdict changed", Filter{}, recs, map[GroupKey]bool{keyOf(base[verdict]): true, keyOf(recs[verdict]): true})
			report("the verdict back", Filter{}, base, map[GroupKey]bool{keyOf(base[verdict]): true, keyOf(recs[verdict]): true})
			report("a record sorted first", Filter{}, append(slices.Clone(base), first), map[GroupKey]bool{keyOf(first): true})
			report("a repeat of it", Filter{}, append(slices.Clone(base), first), map[GroupKey]bool{})
			report("another filter", Filter{ASN: topology.ASN(9)}, append(slices.Clone(base), first), nil)
		})
	}
}

// TestReportMemoSurvivesFlush: a store's last report outlives the sealed
// summary a flush drops. The same aggregate after a flush writes the same
// bytes and finishes no group, though the summary and its sealed fold are
// built again; a record then appended to one group finishes that group
// alone. So does another appended to it with a compaction whose retention
// drops the group's oldest record: its counts are then the last report's
// and one of its samples is not, and splicing it on its counts fails here.
// Every body is Report().AppendJSON's.
func TestReportMemoSurvivesFlush(t *testing.T) {
	recs := memoCorpus(264)
	for i := range recs {
		recs[i].Tick++ // ticks 2 up: the first record's tick 1 alone expires at Compact(102)
	}
	recs[0].Tick, recs[0].Result.OK, recs[0].Result.RTTms = 1, true, 10
	s, err := Open(t.TempDir(), Options{FlushEvery: 32, TargetFrames: 128, Retention: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChunks(t, s, recs, 8) // 8 segments of 32, 8 records in the memtable
	q := AggQuery{GroupBy: GroupCountryASN}
	report := func(name string, reused, finished int64) []byte {
		t.Helper()
		before := s.Counters()
		body := mustFold(t, s, q)
		after := s.Counters()
		if r, f := after["report_groups_reused"]-before["report_groups_reused"], after["report_groups_finished"]-before["report_groups_finished"]; r != reused || f != finished {
			t.Fatalf("%s: %d groups spliced and %d finished, want %d and %d", name, r, f, reused, finished)
		}
		return body
	}
	groups := int64(len(foldOf(t, q.GroupBy, recs).Groups))
	first := report("the first", 0, groups)
	builds := s.Counters()["sealed_summary_builds"]
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if again := report("after a flush", groups, 0); string(again) != string(first) {
		t.Fatalf("after a flush:\n%s\nbefore it:\n%s", again, first)
	}
	if got := s.Counters()["sealed_summary_builds"]; got != builds+1 {
		t.Fatalf("sealed_summary_builds %d after a flush, want %d", got, builds+1)
	}
	more := func(id string, rtt float64) { // one more record in the first record's group
		t.Helper()
		r := recs[0]
		r.TaskID, r.Result.TaskID, r.Tick, r.Result.RTTms = id, id, 20, rtt
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	more("one-more", 20)
	report("a record appended", groups-1, 1)
	more("another", 30)
	if err := s.Compact(102); err != nil {
		t.Fatal(err)
	}
	if s.Counters()["frames_expired"] != 1 {
		t.Fatalf("counters %v: want the first record alone expired", s.Counters())
	}
	report("a record appended, the group's oldest expired", groups-1, 1)
}
