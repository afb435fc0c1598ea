package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/obs"
)

// bruteScan is the scan oracle: the raw records (seqs as Append assigned
// them) that match, the lowest-seq copy of each key only.
func bruteScan(raw []Record, f Filter) []Record {
	seen := map[string]bool{}
	var out []Record
	for _, r := range raw {
		if !f.match(&r) || seen[r.Key()] {
			continue
		}
		seen[r.Key()] = true
		out = append(out, r)
	}
	return out
}

// appendChunks appends the records a few at a time, so a small
// FlushEvery seals many segments (one Append call flushes at most once).
func appendChunks(t *testing.T, s *Store, recs []Record, chunk int) {
	t.Helper()
	for i := 0; i < len(recs); i += chunk {
		if err := s.Append(recs[i:min(i+chunk, len(recs))]...); err != nil {
			t.Fatal(err)
		}
	}
}

// walk pages through a filter's matches limit at a time, as records and
// as items side by side: ScanItems must cut the same pages behind the
// same cursors, and every item — checked once the walk is over, when its
// segment may have been evicted or compacted away — must still be its
// record's key and encoding.
func walk(t *testing.T, s *Store, f Filter, limit int) []Record {
	t.Helper()
	var all []Record
	var items []Item
	for cursor := ""; ; {
		recs, next, err := s.ScanPage(f, limit, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if next != "" && len(recs) != limit {
			t.Fatalf("non-final page holds %d records, want %d", len(recs), limit)
		}
		page, itemsNext, err := s.ScanItems(f, limit, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if itemsNext != next || len(page) != len(recs) {
			t.Fatalf("cursor %q: ScanItems cut %d items and cursor %q, ScanPage %d records and %q", cursor, len(page), itemsNext, len(recs), next)
		}
		all, items = append(all, recs...), append(items, page...)
		if next == "" {
			break
		}
		cursor = next
	}
	for i := range all {
		want, err := json.Marshal(&all[i])
		if err != nil {
			t.Fatal(err)
		}
		if it := items[i]; it.Seq != all[i].Seq || it.Key != (DedupKey{all[i].Experiment, all[i].TaskID}) || !bytes.Equal(it.JSON, want) {
			t.Fatalf("item %d is seq %d key %v\n%s\nits record is seq %d and encodes to\n%s", i, it.Seq, it.Key, it.JSON, all[i].Seq, want)
		}
	}
	return all
}

// answers renders, for every equivalence query, the aggregate, the full
// scan and a paged walk as JSON. open supplies the store for each query.
func answers(t *testing.T, open func() *Store) [][]byte {
	t.Helper()
	var out [][]byte
	for _, q := range equivalenceQueries {
		s := open()
		rep, err := s.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := s.ScanPage(q.Filter, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		paged := walk(t, s, q.Filter, 7)
		raw, err := json.Marshal([]any{rep, full, paged})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// sealedStore builds a disk store of n generated records in small
// segments, part of them merged by a compaction, memtable sealed.
func sealedStore(t *testing.T, seed int64, n int) (*Store, []Record) {
	t.Helper()
	raw := genRecords(seed, n)
	s, err := Open(t.TempDir(), Options{FlushEvery: 32, TargetFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	appendChunks(t, s, raw[:n/2], 20)
	if err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	appendChunks(t, s, raw[n/2:], 20)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, raw
}

func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	re, err := Open(s.dir, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestCacheStateEquivalence: a store whose cache was seeded by its own
// flushes and compactions (warm, nothing ever decoded), a store reopened
// for every query (cold, everything decoded) and one reopened store
// answering all of them (decoded once, then served from the cache) give
// byte-identical answers.
func TestCacheStateEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, _ := sealedStore(t, seed, 500)
		warm := answers(t, func() *Store { return s })
		if got := s.Counters()["segment_cache_misses"]; got != 0 {
			t.Fatalf("seed %d: writer store decoded %d segments; its cache should be seeded", seed, got)
		}
		var colds []*Store
		cold := answers(t, func() *Store {
			colds = append(colds, reopen(t, s))
			return colds[len(colds)-1]
		})
		for i, c := range colds {
			if got := c.Counters()["segment_cache_misses"]; got == 0 {
				t.Fatalf("seed %d query %+v: a cold store decoded nothing", seed, equivalenceQueries[i])
			}
		}
		re := reopen(t, s)
		reopened := answers(t, func() *Store { return re })
		if got := re.Counters()["segment_cache_hits"]; got == 0 {
			t.Fatalf("seed %d: reopened store never hit its cache", seed)
		}
		for i := range warm {
			if !bytes.Equal(warm[i], cold[i]) || !bytes.Equal(warm[i], reopened[i]) {
				t.Fatalf("seed %d query %+v: warm, cold and reopened answers differ\nwarm:     %s\ncold:     %s\nreopened: %s",
					seed, equivalenceQueries[i], warm[i], cold[i], reopened[i])
			}
		}
	}
}

// TestDedupAcrossPageBoundary: the later copy of a duplicated key sits
// just past a page boundary; the paged walk must return the key once —
// the first copy — on a memory and on a disk store.
func TestDedupAcrossPageBoundary(t *testing.T) {
	dup := mkRec("exp-0001", 0, 9) // same key as record 0, later seq
	dup.Result.RTTms = 999
	raw := []Record{mkRec("exp-0001", 0, 1), mkRec("exp-0001", 1, 1), dup, mkRec("exp-0001", 2, 1), mkRec("exp-0001", 3, 1)}
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(dir, Options{FlushEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Append(append([]Record(nil), raw...)...); err != nil {
			t.Fatal(err)
		}
		got := walk(t, s, Filter{}, 2)
		if len(got) != 4 {
			t.Fatalf("dir %q: walk returned %d records, want 4", dir, len(got))
		}
		for i, r := range got {
			if want := mkRec("exp-0001", i, 1); r.TaskID != want.TaskID || r.Result.RTTms != want.Result.RTTms {
				t.Fatalf("dir %q: record %d = %s rtt %v, want %s rtt %v", dir, i, r.TaskID, r.Result.RTTms, want.TaskID, want.Result.RTTms)
			}
		}
		if got := s.Counters()["records_deduped_read"]; got == 0 {
			t.Fatalf("dir %q: records_deduped_read not counted", dir)
		}
	}
}

// TestPageDecodesOnlyWhatItNeeds: a cold page of limit L decodes the
// segments up to the one holding match L+1 and no further; the same page
// again decodes nothing.
func TestPageDecodesOnlyWhatItNeeds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 50, 1) // 5 segments of 10, every record matches
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ limit, segments int }{
		{limit: 15, segments: 2}, // match 16 is in the 2nd segment
		{limit: 20, segments: 3}, // match 21 opens the 3rd
		{limit: 9, segments: 1},
		{limit: 50, segments: 5}, // no match 51: read to the end
	} {
		re, err := Open(dir, Options{FlushEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		first, next, err := re.ScanPage(Filter{}, tc.limit, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != tc.limit || (next == "") != (tc.limit == 50) {
			t.Fatalf("limit %d: page of %d records, cursor %q", tc.limit, len(first), next)
		}
		ctr := re.Counters()
		if ctr["segment_cache_misses"] != int64(tc.segments) || ctr["segment_cache_hits"] != 0 {
			t.Fatalf("limit %d: cold page: %d misses %d hits, want %d and 0",
				tc.limit, ctr["segment_cache_misses"], ctr["segment_cache_hits"], tc.segments)
		}
		if got := ctr["segment_cache_records"]; got != int64(10*tc.segments) {
			t.Fatalf("limit %d: cache holds %d records, want %d", tc.limit, got, 10*tc.segments)
		}
		again, _, err := re.ScanPage(Filter{}, tc.limit, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("limit %d: warm page differs from cold page", tc.limit)
		}
		ctr = re.Counters()
		if ctr["segment_cache_misses"] != int64(tc.segments) || ctr["segment_cache_hits"] != int64(tc.segments) {
			t.Fatalf("limit %d: warm page: %d misses %d hits, want %d and %d",
				tc.limit, ctr["segment_cache_misses"], ctr["segment_cache_hits"], tc.segments, tc.segments)
		}
	}
}

// cachedIDs lists the segments the cache holds.
func cachedIDs(s *Store) map[uint64]bool {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	out := map[uint64]bool{}
	for id := range s.cache.byID {
		out[id] = true
	}
	return out
}

// checkAgainstBrute compares the store's answers to every equivalence
// query with the oracles over the records it should hold.
func checkAgainstBrute(t *testing.T, s *Store, live []Record) {
	t.Helper()
	for _, q := range equivalenceQueries {
		got, err := s.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveAggregate(live, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("aggregate %+v diverged from naive oracle\nwant: %+v\ngot:  %+v", q, want, got)
		}
		if got, want := walk(t, s, q.Filter, 11), bruteScan(live, q.Filter); !reflect.DeepEqual(got, want) {
			t.Fatalf("walk %+v: %d records, oracle has %d", q.Filter, len(got), len(want))
		}
	}
}

// TestCompactionEvictsInputs: after a compaction with retention the
// cache holds exactly the live segments — the merge outputs seeded, the
// merged and expired inputs gone — and a query right after it matches
// the brute-force oracle.
func TestCompactionEvictsInputs(t *testing.T) {
	raw := genRecords(4, 384) // ticks 1..50; 24 segments, every one merged
	s, err := Open(t.TempDir(), Options{FlushEvery: 16, TargetFrames: 64, Retention: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChunks(t, s, raw, 16)
	before := cachedIDs(s)
	if len(before) != 384/16 {
		t.Fatalf("flushes seeded %d cache entries, want %d", len(before), 384/16)
	}
	if err := s.Compact(50); err != nil { // ticks < 20 expire
		t.Fatal(err)
	}
	var live []Record
	for _, r := range raw {
		if r.Tick >= 20 {
			live = append(live, r)
		}
	}
	liveIDs := map[uint64]bool{}
	for _, sg := range s.segs {
		liveIDs[sg.id] = true
	}
	if after := cachedIDs(s); !reflect.DeepEqual(after, liveIDs) {
		t.Fatalf("cache holds segments %v, the store's are %v", after, liveIDs)
	}
	if len(liveIDs) >= len(before) {
		t.Fatalf("compaction merged nothing: %d segments, were %d", len(liveIDs), len(before))
	}
	ctr := s.Counters()
	if got := ctr["segment_cache_records"]; got != int64(len(live)) {
		t.Fatalf("cache holds %d records, %d are live", got, len(live))
	}
	var image int64 // the record frames of the live segments' files
	for _, sg := range s.segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		image += framelog.Span(framelog.Frames(data)[1:])
	}
	if got := ctr["segment_cache_bytes"]; got != image {
		t.Fatalf("segment_cache_bytes = %d, the live segments' record frames are %d bytes", got, image)
	}
	checkAgainstBrute(t, s, live)
	if got := s.Counters()["segment_cache_misses"]; got != 0 {
		t.Fatalf("queries after compaction decoded %d segments; the outputs should be seeded", got)
	}
}

// TestCacheBudget: a store several times the budget never holds more
// than the budget, evicts, and still answers like the oracle — as does a
// store whose every segment is larger than the whole budget.
func TestCacheBudget(t *testing.T) {
	for _, budget := range []int{64, 10} {
		raw := genRecords(5, 300)
		s, err := Open(t.TempDir(), Options{FlushEvery: 16, TargetFrames: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.cache.budget = budget
		held := func(when string) int64 {
			t.Helper()
			n := s.Counters()["segment_cache_records"]
			if n > int64(budget) {
				t.Fatalf("budget %d: cache holds %d records %s", budget, n, when)
			}
			if b := s.Counters()["segment_cache_bytes"]; (b > 0) != (n > 0) || b < 0 {
				t.Fatalf("budget %d: cache holds %d records in %d bytes %s", budget, n, b, when)
			}
			return n
		}
		for i := 0; i < len(raw); i += 100 {
			appendChunks(t, s, raw[i:i+100], 16)
			held("after appends")
		}
		for _, q := range equivalenceQueries {
			if _, err := s.Aggregate(q); err != nil {
				t.Fatal(err)
			}
			held("after an aggregate")
			walk(t, s, q.Filter, 50)
			held("after a walk")
		}
		checkAgainstBrute(t, s, raw)
		n, ctr := held("at the end"), s.Counters()
		if budget < 16 {
			if n != 0 || ctr["segment_cache_evictions"] != 0 {
				t.Fatalf("budget %d: segments larger than the budget were cached: %v", budget, ctr)
			}
			continue
		}
		if n == 0 || ctr["segment_cache_evictions"] == 0 || ctr["segment_cache_misses"] == 0 {
			t.Fatalf("budget %d: cache not exercised: %v", budget, ctr)
		}
	}
}

// TestCacheBudgetPerStore: two disk stores on one registry each keep
// their own budget; the shared gauge reports what both hold.
func TestCacheBudgetPerStore(t *testing.T) {
	reg := obs.NewRegistry()
	var stores []*Store
	for i := 0; i < 2; i++ {
		s, err := Open(t.TempDir(), Options{FlushEvery: 16, TargetFrames: 16, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.cache.budget = 64
		stores = append(stores, s)
	}
	var held int64
	for i, s := range stores {
		raw := genRecords(int64(7+i), 300)
		appendChunks(t, s, raw, 16)
		for _, q := range equivalenceQueries {
			walk(t, s, q.Filter, 50)
		}
		checkAgainstBrute(t, s, raw)
		s.cache.mu.Lock()
		n := s.cache.records
		s.cache.mu.Unlock()
		if n == 0 || n > 64 {
			t.Fatalf("store %d holds %d records against a budget of 64", i, n)
		}
		held += n
	}
	if got := reg.Gauges("obs_store_gauge").Get("segment_cache_records"); got != held {
		t.Fatalf("segment_cache_records = %d, the stores hold %d", got, held)
	}
}

// TestConcurrentReadersAndMaintenance runs paged walks, cursor walks,
// aggregates (unfiltered ones, which take the sealed fold) and key sets
// against appends, flushes and compactions under a budget small enough to
// evict, while each flush and compaction drops the sealed summary and
// reads build it again; meaningful under -race. Every read must see a
// prefix of the appended records, and the final state must match the
// oracle.
func TestConcurrentReadersAndMaintenance(t *testing.T) {
	raw := genRecords(6, 400)
	s, err := Open(t.TempDir(), Options{FlushEvery: 16, TargetFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cache.budget = 100
	appendChunks(t, s, raw[:100], 16)
	if _, err := s.Aggregate(AggQuery{}); err != nil { // builds the summary the race drops
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers, maint sync.WaitGroup
	fail := func(format string, args ...any) { t.Errorf(format, args...) }
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := equivalenceQueries[(g+i)%len(equivalenceQueries)]
				full, _, err := s.ScanPage(q.Filter, 0, "")
				if err != nil {
					fail("scan: %v", err)
					return
				}
				for j := 1; j < len(full); j++ {
					if full[j].Seq <= full[j-1].Seq {
						fail("scan out of order at %d", j)
						return
					}
				}
				if _, _, err := s.ScanPage(q.Filter, 13, ""); err != nil {
					fail("page: %v", err)
					return
				}
				var last uint64
				for cursor := ""; ; {
					page, next, err := s.ScanPage(q.Filter, 17, cursor)
					if err != nil {
						fail("walk: %v", err)
						return
					}
					for _, r := range page {
						want := raw[r.Seq-1]
						want.Seq = r.Seq
						if r.Seq <= last || !q.Filter.match(&r) || !reflect.DeepEqual(r, want) {
							fail("walk after seq %d took seq %d: %+v", last, r.Seq, r)
							return
						}
						last = r.Seq
					}
					if next == "" {
						break
					}
					cursor = next
				}
				if _, err := s.Aggregate(AggQuery{GroupBy: GroupByModes[(g+i)%len(GroupByModes)]}); err != nil {
					fail("unfiltered aggregate: %v", err)
					return
				}
				rep, err := s.Aggregate(q)
				if err != nil {
					fail("aggregate: %v", err)
					return
				}
				if rep.Matched < int64(len(full)) {
					fail("aggregate matched %d after a scan saw %d", rep.Matched, len(full))
					return
				}
				if _, err := s.KeySet(fmt.Sprintf("exp-%04d", 1+i%4)); err != nil {
					fail("keyset: %v", err)
					return
				}
			}
		}(g)
	}
	maint.Add(2)
	go func() {
		defer maint.Done()
		for i := 100; i < len(raw); i += 10 {
			if err := s.Append(raw[i : i+10]...); err != nil {
				fail("append: %v", err)
				return
			}
			if i%70 == 0 {
				if err := s.Flush(); err != nil {
					fail("flush: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer maint.Done()
		for i := 0; i < 10; i++ {
			if err := s.Compact(0); err != nil {
				fail("compact: %v", err)
				return
			}
		}
	}()
	maint.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	if got := s.Counters()["segment_cache_records"]; got > 100 {
		t.Fatalf("cache holds %d records over a budget of 100", got)
	}
	checkAgainstBrute(t, s, raw)
	ctr := s.Counters()
	if ctr["sealed_summary_builds"] < 2 || ctr["sealed_fold_hits"] == 0 || ctr["pages_seeked"] == 0 {
		t.Fatalf("the summary was not dropped and built again, or not read: %v", ctr)
	}
}
