package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// mkRec builds a deterministic test record. i drives every field so
// records are distinguishable and duplicates detectable.
func mkRec(exp string, i int, tick int64) Record {
	countries := []string{"NG", "KE", "ZA"}
	return Record{
		Experiment: exp,
		TaskID:     fmt.Sprintf("%s-t%04d", exp, i),
		ProbeID:    fmt.Sprintf("pr-%02d", i%4),
		Tick:       tick,
		Country:    countries[i%len(countries)],
		ASN:        topology.ASN(36900 + i%3),
		Result: probes.Result{
			TaskID:     fmt.Sprintf("%s-t%04d", exp, i),
			Experiment: exp,
			Kind:       probes.TaskPing,
			OK:         i%5 != 0,
			RTTms:      float64(10 + i%70),
		},
	}
}

func appendN(t *testing.T, s *Store, exp string, n int, tick int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(mkRec(exp, i, tick)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlushReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 25, 3)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 25 {
		t.Fatalf("scan = %d records, want 25", len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{FlushEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := re.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened scan diverged\nwant: %+v\ngot:  %+v", want, got)
	}
	// Sequence numbering continues where the previous incarnation left off.
	if err := re.Append(mkRec("exp-0002", 0, 4)); err != nil {
		t.Fatal(err)
	}
	recs, _, err := re.ScanPage(Filter{Experiment: "exp-0002"}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq <= want[len(want)-1].Seq {
		t.Fatalf("seq did not continue after reopen: %+v", recs)
	}
}

func TestAutoFlushBoundsMemtable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, "exp-0001", 10_000, 1)
	if n := s.MemtableLen(); n >= 64 {
		t.Fatalf("memtable holds %d records; auto-flush should cap it under 64", n)
	}
	ctr := s.Counters()
	if ctr["store_frames_appended"] != 10_000 {
		t.Fatalf("store_frames_appended = %d, want 10000", ctr["store_frames_appended"])
	}
	if ctr["segments_flushed"] < 10_000/64 {
		t.Fatalf("segments_flushed = %d, want >= %d", ctr["segments_flushed"], 10_000/64)
	}
}

func TestCompactionMergesAndCounts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 8, TargetFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, "exp-0001", 64, 5)
	before := s.SegmentCount()
	if before < 8 {
		t.Fatalf("segments before compaction = %d, want >= 8", before)
	}
	want, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(10); err != nil {
		t.Fatal(err)
	}
	after := s.SegmentCount()
	if after >= before {
		t.Fatalf("compaction did not reduce segments: %d -> %d", before, after)
	}
	got, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed scan results")
	}
	ctr := s.Counters()
	if ctr["segments_compacted"] < int64(before-after) {
		t.Fatalf("segments_compacted = %d, want >= %d", ctr["segments_compacted"], before-after)
	}
}

func TestRetentionExpiresOldRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 4, Retention: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, "exp-old", 8, 1)    // ticks far in the past
	appendN(t, s, "exp-new", 8, 99)   // recent
	if err := s.Flush(); err != nil { // seal any partial memtable
		t.Fatal(err)
	}
	if err := s.Compact(100); err != nil { // cutoff = 90
		t.Fatal(err)
	}
	old, _, err := s.ScanPage(Filter{Experiment: "exp-old"}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 0 {
		t.Fatalf("retention left %d expired records", len(old))
	}
	recent, _, err := s.ScanPage(Filter{Experiment: "exp-new"}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recent) != 8 {
		t.Fatalf("retention dropped recent records: %d left, want 8", len(recent))
	}
	if got := s.Counters()["frames_expired"]; got != 8 {
		t.Fatalf("frames_expired = %d, want 8", got)
	}
}

// TestCrashDuringFlush simulates dying between the tmp write and the
// rename: the stray tmp must be removed at Open and its records (the
// memtable) lost cleanly — sealed segments stay intact.
func TestCrashDuringFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 10, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fake an interrupted second flush: a tmp file that never got renamed.
	stray := filepath.Join(dir, segName(99)+".tmp")
	if err := os.WriteFile(stray, []byte("half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	// No Close — the "crash".
	re, err := Open(dir, Options{FlushEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray tmp survived Open")
	}
	if got := re.Counters()["segments_tmp_removed"]; got != 1 {
		t.Fatalf("segments_tmp_removed = %d, want 1", got)
	}
	recs, _, err := re.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("sealed records lost: %d, want 10", len(recs))
	}
}

// TestCrashDuringCompaction simulates dying after the merged segment is
// renamed into place but before the inputs are deleted: Open must prune
// the subsumed inputs and serve each record exactly once.
func TestCrashDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 4, TargetFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 16, 1)
	want, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the pre-compaction segment files, compact, then restore
	// them alongside the merged output — the on-disk shape of a crash
	// between the merge rename and the input deletions.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		saved[e.Name()] = raw
	}
	if err := s.Compact(5); err != nil {
		t.Fatal(err)
	}
	if s.SegmentCount() != 1 {
		t.Fatalf("segments after compaction = %d, want 1", s.SegmentCount())
	}
	for name, raw := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, Options{FlushEvery: 4, TargetFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Counters()["segments_subsumed"]; got == 0 {
		t.Fatal("Open did not prune the restored compaction inputs")
	}
	got, _, err := re.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-crash scan diverged (%d records, want %d)", len(got), len(want))
	}
}

func TestScanPagePagination(t *testing.T) {
	s := NewMemory(Options{FlushEvery: 7})
	appendN(t, s, "exp-0001", 23, 1)
	var all []Record
	cursor := ""
	pages := 0
	for {
		recs, next, err := s.ScanPage(Filter{Experiment: "exp-0001"}, 5, cursor)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
		pages++
		if next == "" {
			break
		}
		if len(recs) != 5 {
			t.Fatalf("non-final page holds %d records, want 5", len(recs))
		}
		cursor = next
	}
	if len(all) != 23 || pages != 5 {
		t.Fatalf("paginated scan: %d records over %d pages, want 23 over 5", len(all), pages)
	}
	whole, _, err := s.ScanPage(Filter{Experiment: "exp-0001"}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, whole) {
		t.Fatal("paginated scan differs from whole scan")
	}
	if _, _, err := s.ScanPage(Filter{}, 5, "not-a-cursor"); err == nil {
		t.Fatal("bad cursor accepted")
	}
}

// TestReadDedupFirstWins covers the crash-window duplicate: two stored
// records for the same (experiment, task) collapse to the lowest-seq
// copy on every read path.
func TestReadDedupFirstWins(t *testing.T) {
	s := NewMemory(Options{FlushEvery: 2})
	r1 := mkRec("exp-0001", 0, 1)
	r1.Result.RTTms = 11
	r2 := mkRec("exp-0001", 0, 2) // same key, later duplicate
	r2.Result.RTTms = 99
	if err := s.Append(r1, mkRec("exp-0001", 1, 1), r2); err != nil {
		t.Fatal(err)
	}
	recs, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("scan = %d records, want 2 after dedup", len(recs))
	}
	if recs[0].Result.RTTms != 11 {
		t.Fatalf("dedup kept the later copy (rtt=%v)", recs[0].Result.RTTms)
	}
	if got := s.Counters()["records_deduped_read"]; got == 0 {
		t.Fatal("records_deduped_read not counted")
	}
	rep, err := s.Aggregate(AggQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 2 {
		t.Fatalf("aggregate matched %d, want 2", rep.Matched)
	}
}

func TestCloseDurableAndReadable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 5, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkRec("exp-0001", 9, 1)); err == nil {
		t.Fatal("append after Close succeeded")
	}
	recs, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("reads after Close = %d records, want 5", len(recs))
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err = re.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("Close did not seal the memtable: %d records on reopen", len(recs))
	}
}

// TestSeqSurvivesFullExpiry: retention expires every record, the store is
// reopened, and new records still get sequence numbers above every one
// handed out before — so a cursor taken before the expiry pages to them.
func TestSeqSurvivesFullExpiry(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushEvery: 1, Retention: 2}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 2, 1) // seq 1, 2
	page, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil || len(page) != 2 {
		t.Fatalf("scan before expiry: %d records, %v", len(page), err)
	}
	cursor := fmt.Sprint(page[1].Seq)
	if err := s.Compact(100); err != nil {
		t.Fatal(err)
	}
	if got := s.SealedSeq(); got != 2 {
		t.Fatalf("SealedSeq after expiring everything = %d, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.SealedSeq(); got != 2 {
		t.Fatalf("SealedSeq after reopen = %d, want 2", got)
	}
	for i := 2; i < 4; i++ {
		if err := re.Append(mkRec("exp-0001", i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	next, _, err := re.ScanPage(Filter{}, 0, cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 2 || next[0].Seq != 3 || next[1].Seq != 4 {
		t.Fatalf("a cursor at seq 2 pages to %+v, want the two new records at seq 3 and 4", next)
	}
	// The record that carried the watermark goes once a newer segment has it.
	if err := re.Compact(101); err != nil {
		t.Fatal(err)
	}
	if old, _, _ := re.ScanPage(Filter{ToTick: 50}, 0, ""); len(old) != 0 {
		t.Fatalf("%d expired records left after a newer segment sealed", len(old))
	}
}

// TestSealedSeqNeverDecreases drives random appends, flushes, compactions
// under retention and reopens: the watermark only moves up, never past
// the last sequence number handed out, and lands on it at every flush.
func TestSealedSeqNeverDecreases(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		opts := Options{FlushEvery: 1 + rng.Intn(5), TargetFrames: 6, Retention: 3}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		var last, sealed uint64
		tick := int64(1)
		for step := 0; step < 200; step++ {
			switch k := rng.Intn(10); {
			case k < 5:
				rec := mkRec("exp-0001", step, tick)
				if err := s.Append(rec); err != nil {
					t.Fatal(err)
				}
				last++
			case k < 6:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := s.SealedSeq(); got != last {
					t.Fatalf("seed %d step %d: SealedSeq %d after a flush, last handed out %d", seed, step, got, last)
				}
			case k < 8:
				tick += int64(rng.Intn(4))
				if err := s.Compact(tick); err != nil {
					t.Fatal(err)
				}
			default:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(dir, opts); err != nil {
					t.Fatal(err)
				}
			}
			got := s.SealedSeq()
			if got < sealed || got > last {
				t.Fatalf("seed %d step %d: SealedSeq %d, was %d, last handed out %d", seed, step, got, sealed, last)
			}
			sealed = got
		}
		s.Close()
	}
}

// TestDamagedSegmentServesItsPrefix: a sealed segment damaged on disk is
// served up to its first bad frame, as records and as bytes — the items
// are the valid prefix's payloads and the cache keeps no others.
func TestDamagedSegmentServesItsPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 8, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := framelog.Frames(data) // meta, then the 8 records
	const good = 5
	bad := int(framelog.Span(frames[:1+good])) + framelog.HeaderBytes + 2 // inside record 6's payload
	data[bad] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := walk(t, re, Filter{}, 3) // holds every item to its record
	if len(recs) != good {
		t.Fatalf("damaged segment served %d records, want the %d before the bad frame", len(recs), good)
	}
	items, _, err := re.ScanItems(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if !bytes.Equal(it.JSON, frames[1+i]) {
			t.Fatalf("item %d is not the segment's frame %d", i, 1+i)
		}
	}
	ctr := re.Counters()
	if ctr["segments_truncated_read"] != 1 || ctr["segment_cache_records"] != good || ctr["segment_cache_bytes"] != framelog.Span(frames[1:1+good]) {
		t.Fatalf("after serving the prefix: %v, want one truncated read, %d records, %d bytes", ctr, good, framelog.Span(frames[1:1+good]))
	}
}
