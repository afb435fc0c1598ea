package store

import (
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// summaryCorpus is a store's sealed part and memtable. Its memtable is
// appended in two halves, the first before the store's first read and
// the second after it; repeatsFrom is the half from which a key repeats
// (2: none does), so the read of a half before it may take the repeat-free
// paths and the read of one from it on must not.
type summaryCorpus struct {
	name         string
	sealed, tail []Record
	repeatsFrom  int
}

// summaryCorpora: the memo corpus, which repeats no key, the duplicate
// corpus, which repeats keys from the start, and the memo corpus with one
// memtable record made a later copy of a sealed record or of another
// memtable record, in the first half or the second: a key the summary
// learns of when it is built, or one Append must note.
func summaryCorpora() []summaryCorpus {
	memo := memoCorpus(152)
	sealed, tail := memo[:128], memo[128:]
	copyOf := func(at int, of Record) []Record {
		out := slices.Clone(tail)
		out[at].Experiment, out[at].TaskID = of.Experiment, of.TaskID
		return out
	}
	dupSealed, dupTail := dupCorpus()
	return []summaryCorpus{
		{"memo", sealed, tail, 2},
		{"duplicates", dupSealed, dupTail, 0},
		{"sealed-key-first-half", sealed, copyOf(3, sealed[40]), 0},
		{"sealed-key-second-half", sealed, copyOf(18, sealed[100]), 1},
		{"own-key-first-half", sealed, copyOf(9, tail[2]), 0},
		{"own-key-second-half", sealed, copyOf(20, tail[4]), 1},
	}
}

// summaryReads renders, per filter, full cursor walks at limits 7, 32 and
// 200 and the Aggregate and the Fold of every group_by. A page is its
// records' seqs and its cursor: two stores built alike give a seq to the
// same record.
func summaryReads(t *testing.T, s *Store, filters []Filter) []byte {
	t.Helper()
	var out []byte
	add := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, raw...), '\n')
	}
	for _, f := range filters {
		for _, limit := range []int{7, 32, 200} {
			for cursor := ""; ; {
				recs, next, err := s.ScanPage(f, limit, cursor)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					out = strconv.AppendUint(append(out, ' '), r.Seq, 10)
				}
				out = append(append(out, " next "...), next+"\n"...)
				if next == "" {
					break
				}
				cursor = next
			}
		}
		for _, gb := range GroupByModes {
			q := AggQuery{Filter: f, GroupBy: gb}
			rep, err := s.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			fold, err := s.Fold(q)
			if err != nil {
				t.Fatal(err)
			}
			add(rep)
			add(fold)
		}
	}
	return out
}

// TestSummaryReadsAnswerAlike builds every store shape of every summary
// corpus twice, with fold memos (so with the sealed summary) and without,
// and reads both after each half of the memtable: walks, aggregates and
// folds must be byte-identical under filters that cover every sealed
// run, some or none. The summary side must have taken the sealed fold and
// seeked pages while no key repeats, and neither once one does.
func TestSummaryReadsAnswerAlike(t *testing.T) {
	filters := slices.Clone(memoFilters)
	for _, q := range dupQueries {
		filters = append(filters, q.Filter)
	}
	for _, c := range summaryCorpora() {
		for _, shape := range memoShapes {
			t.Run(c.name+"/"+shape.name, func(t *testing.T) {
				read := func(withMemos bool) ([]byte, []map[string]int64) {
					foldMemos = withMemos
					defer func() { foldMemos = true }()
					half := len(c.tail) / 2
					s := shape.build(t, c.sealed, c.tail[:half])
					first := summaryReads(t, s, filters)
					ctr := []map[string]int64{s.Counters()}
					appendChunks(t, s, c.tail[half:], 8)
					if s.MemtableLen() == 0 {
						t.Fatal("the memtable was flushed")
					}
					out := append(first, summaryReads(t, s, filters)...)
					return out, append(ctr, s.Counters())
				}
				got, ctr := read(true)
				want, _ := read(false)
				if string(got) != string(want) {
					t.Fatalf("reads with the sealed summary differ from the exact path's:\n%s\nwant:\n%s", got, want)
				}
				prev := map[string]int64{}
				for half, now := range ctr {
					for _, name := range []string{"sealed_fold_hits", "pages_seeked"} {
						moved := now[name] > prev[name]
						if free := half < c.repeatsFrom; moved != free {
							t.Errorf("half %d: %s went %d → %d, want it to move: %v", half, name, prev[name], now[name], free)
						}
					}
					prev = now
				}
			})
		}
	}
}

// FuzzStoreReadsAgree drives a disk store through a seeded sequence of
// appends (some a later copy of an earlier record's key), flushes,
// compactions under retention and reopens, and reads it after every
// step, once with fold memos off (the exact path) and once with them on
// (the sealed summary): walks and aggregates must be byte-identical.
func FuzzStoreReadsAgree(f *testing.F) {
	f.Add(int64(1), []byte{0, 6, 12, 1, 3, 7})
	f.Add(int64(2), []byte{0, 6, 2, 14, 3, 8, 20, 4, 5, 0, 2})
	f.Add(int64(3), []byte{18, 24, 30, 5, 0, 26, 9, 3, 2, 1})
	filters := []Filter{{}, {Country: "KE"}, {FromTick: 5, ToTick: 12}}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		pool := genFoldRecords(seed, 8*len(ops))
		var appended []Record
		s, err := Open(t.TempDir(), Options{FlushEvery: 8, TargetFrames: 24, Retention: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		reads := func() []byte {
			var out []byte
			for _, fl := range filters {
				for _, limit := range []int{3, 0} {
					for cursor := ""; ; {
						recs, next, err := s.ScanPage(fl, limit, cursor)
						if err != nil {
							t.Fatal(err)
						}
						raw, err := json.Marshal([]any{recs, next})
						if err != nil {
							t.Fatal(err)
						}
						out = append(append(out, raw...), '\n')
						if next == "" {
							break
						}
						cursor = next
					}
				}
				for _, gb := range []string{GroupNone, GroupCountryASN} {
					fold, err := s.Fold(AggQuery{Filter: fl, GroupBy: gb})
					if err != nil {
						t.Fatal(err)
					}
					raw, err := json.Marshal([]any{fold, fold.Report()})
					if err != nil {
						t.Fatal(err)
					}
					out = append(append(out, raw...), '\n')
				}
			}
			return out
		}
		for step, op := range ops {
			n := int(op / 6)
			switch op % 6 {
			case 0, 1:
				recs := pool[:1+n%8]
				pool = pool[len(recs):]
				err = s.Append(slices.Clone(recs)...)
				appended = append(appended, recs...)
			case 2:
				if len(appended) > 0 {
					r := appended[n%len(appended)]
					r.Tick, r.Country = r.Tick+5, "KE"
					err = s.Append(r)
					appended = append(appended, r)
				}
			case 3:
				err = s.Flush()
			case 4:
				err = s.Compact(int64(n % 24))
			case 5:
				if err = s.Close(); err == nil {
					var re *Store
					if re, err = Open(s.dir, s.opts); err == nil {
						s = re
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			foldMemos = false
			want := reads()
			foldMemos = true
			if got := reads(); string(got) != string(want) {
				t.Fatalf("step %d (op %d): reads with the sealed summary differ from the exact path's:\n%s\nwant:\n%s", step, op, got, want)
			}
		}
	})
}

// TestDerivedSummaryIsRebuilt: the summary the first read after a flush
// derives from the last one is the summary a fresh build makes. A memory
// and a disk store over the memo corpus are read after a flush; after
// three flushes, so that several runs are new to the summary; after a
// flush that follows a read which built some group_bys' folds and not
// the others; after a compaction and then a flush; after a retention
// expiry; and after a flush that seals a later copy of a sealed key. Each
// time the summary's keys, flags and folds (JSON and group index), and
// the Fold and report of every group_by it folds, must equal those of a
// store put through the same appends, flushes and compactions with no
// read between them. sealed_folds_derived moves, by the folds the last
// summary held, only where a flush alone came between two reads of a
// repeat-free store; merging the new runs' fold before the old one, or
// taking the last run the old summary covers for a new one, fails it.
func TestDerivedSummaryIsRebuilt(t *testing.T) {
	corpus := memoCorpus(320)
	opts := Options{FlushEvery: 1024, TargetFrames: 128, Retention: 8}
	for _, shape := range []struct {
		name string
		open func(t *testing.T) *Store
	}{
		{"memory", func(*testing.T) *Store { return NewMemory(opts) }},
		{"disk", func(t *testing.T) *Store {
			s, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			var ops []func(*Store) error // replayed on a fresh store at every check
			next := 0
			do := func(s *Store, op func(*Store) error) {
				t.Helper()
				ops = append(ops, op)
				if err := op(s); err != nil {
					t.Fatal(err)
				}
			}
			add := func(s *Store, n int) {
				recs := corpus[next : next+n]
				next += n
				do(s, func(s *Store) error { return s.Append(slices.Clone(recs)...) })
			}
			flush := func(s *Store) { do(s, (*Store).Flush) }
			compact := func(s *Store, now int64) { do(s, func(s *Store) error { return s.Compact(now) }) }
			read := func(s *Store, gb string) string {
				t.Helper()
				fold, err := s.Fold(AggQuery{GroupBy: gb})
				if err != nil {
					t.Fatal(err)
				}
				return mustJSON(t, fold) + string(mustFold(t, s, AggQuery{GroupBy: gb}))
			}
			// check reads gbs and holds the store to a fresh one.
			check := func(step string, s *Store, gbs []string, derived int64) {
				t.Helper()
				before := s.Counters()
				for _, gb := range gbs {
					read(s, gb)
				}
				after := s.Counters()
				if d := after["sealed_folds_derived"] - before["sealed_folds_derived"]; d != derived {
					t.Errorf("%s: %d folds derived, want %d", step, d, derived)
				}
				if b := after["sealed_summary_builds"] - before["sealed_summary_builds"]; b != 1 {
					t.Errorf("%s: %d summaries made, want 1", step, b)
				}
				fresh := shape.open(t)
				for _, op := range ops {
					if err := op(fresh); err != nil {
						t.Fatal(err)
					}
				}
				for _, gb := range GroupByModes {
					if _, built := s.sum.folds[gb]; built || slices.Contains(gbs, gb) {
						if got, want := read(s, gb), read(fresh, gb); got != want {
							t.Errorf("%s: group %q reads\n%s\nwant\n%s", step, gb, got, want)
						}
					}
				}
				got, want := s.sum, fresh.sum
				if !slices.Equal(got.keys, want.keys) || got.repeats != want.repeats || got.memRepeats != want.memRepeats || got.upTo != want.upTo {
					t.Errorf("%s: summary keys (%d), repeats %v/%v, up to %d; want (%d), %v/%v, %d", step,
						len(got.keys), got.repeats, got.memRepeats, got.upTo, len(want.keys), want.repeats, want.memRepeats, want.upTo)
				}
				if len(got.folds) != len(want.folds) {
					t.Errorf("%s: %d folds, want %d", step, len(got.folds), len(want.folds))
				}
				for gb, f := range got.folds {
					if w := want.folds[gb]; w == nil || mustJSON(t, f) != mustJSON(t, w) || !reflect.DeepEqual(f.base, w.base) {
						t.Errorf("%s: group %q: the sealed fold differs from a fresh one's", step, gb)
					}
				}
			}
			s := shape.open(t)
			for range 4 {
				add(s, 32)
				flush(s)
			}
			add(s, 8)
			check("the first read", s, GroupByModes, 0)
			flush(s)
			add(s, 4)
			check("a flush", s, []string{GroupCountryASN}, int64(len(GroupByModes)))
			for range 3 {
				add(s, 8)
				flush(s)
			}
			add(s, 4)
			check("three flushes", s, []string{GroupASN}, int64(len(GroupByModes)))
			compact(s, 0)
			check("a compaction", s, []string{GroupNone, GroupCountry}, 0)
			add(s, 8)
			flush(s)
			add(s, 4)
			check("a flush after a read of two group_bys", s, GroupByModes, 2)
			compact(s, 0)
			add(s, 8)
			flush(s)
			add(s, 4)
			check("a compaction, then a flush", s, []string{GroupCountryASN}, 0)
			expired := s.Counters()["frames_expired"]
			compact(s, 18)
			if s.Counters()["frames_expired"] == expired {
				t.Fatal("retention expired nothing")
			}
			check("a retention expiry", s, GroupByModes, 0)
			add(s, 8)
			flush(s)
			check("a flush after a retention expiry", s, []string{GroupVerdict}, int64(len(GroupByModes)))
			dup := corpus[next-1] // sealed: a later copy makes the store repeat a key
			do(s, func(s *Store) error { return s.Append(dup) })
			flush(s)
			check("a flush that seals a repeat", s, GroupByModes, 0)
			if !s.sum.repeats || len(s.sum.folds) != 0 {
				t.Fatalf("a summary that repeats a key holds %d folds, repeats %v", len(s.sum.folds), s.sum.repeats)
			}
		})
	}
}
