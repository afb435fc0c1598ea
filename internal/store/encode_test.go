package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// badUTF8 marks every third record's error with bytes that are not
// UTF-8: encoding/json writes them as the escape \ufffd, and the record
// decoded from that would encode as the rune itself, so a record encoded
// twice shows.
func badUTF8(recs []Record) []Record {
	for i := range recs {
		if i%3 == 0 {
			recs[i].Result.Error = "bad\xffutf8"
		}
	}
	return recs
}

// items pages through the whole store limit at a time as wire items.
func items(t *testing.T, s *Store, limit int) []Item {
	t.Helper()
	var all []Item
	for cursor := ""; ; {
		page, next, err := s.ScanItems(Filter{}, limit, cursor)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page...)
		if next == "" {
			return all
		}
		cursor = next
	}
}

// TestCompactionKeepsTheFrame: compacting cold-loaded segments writes
// the frames it read, so a page carries the same bytes before and after
// a reopen and a compaction, invalid UTF-8 included.
func TestCompactionKeepsTheFrame(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendChunks(t, s, badUTF8(genRecords(1, 4)), 1)
	before := items(t, s, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = reopen(t, s)
	defer s.Close()
	if err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	if n := s.SegmentCount(); n != 1 {
		t.Fatalf("%d segments after the compaction, want 1", n)
	}
	after := items(t, s, 0)
	if len(after) != len(before) {
		t.Fatalf("%d items after, %d before", len(after), len(before))
	}
	for i := range before {
		if !bytes.Equal(after[i].JSON, before[i].JSON) {
			t.Errorf("seq %d respelled by the compaction:\n before %s\n after  %s", before[i].Seq, before[i].JSON, after[i].JSON)
		}
	}
}

// TestPagedFlushWritesTheSameSegment: a flush that splices the encodings
// pages left in the memtable writes the segment a flush that encodes
// every record writes, byte for byte.
func TestPagedFlushWritesTheSameSegment(t *testing.T) {
	var files [2][]byte
	for paged := range files {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendChunks(t, s, badUTF8(genRecords(2, 60)), 7)
		if paged == 1 {
			if _, _, err := s.ScanItems(Filter{}, 25, ""); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.ScanItems(Filter{Country: "KE"}, 0, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if files[paged], err = os.ReadFile(filepath.Join(dir, segName(1))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("the paged store's segment differs:\n%q\n%q", files[1], files[0])
	}
}

// TestEachRecordIsEncodedOnce counts encodes: a memtable record is
// encoded by the first page that takes it, and later pages, the flush
// and a compaction reuse those bytes.
func TestEachRecordIsEncodedOnce(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	encoded := func() int64 { return s.Counters()["records_encoded"] }
	step := func(what string, want int64, do func() error) {
		t.Helper()
		before := encoded()
		if err := do(); err != nil {
			t.Fatal(err)
		}
		if got := encoded() - before; got != want {
			t.Fatalf("%s encoded %d records, want %d", what, got, want)
		}
	}
	page := func(cursor string) func() error {
		return func() error {
			_, _, err := s.ScanItems(Filter{}, 200, cursor)
			return err
		}
	}
	appendChunks(t, s, genRecords(3, 300), 10)
	first, next, err := s.ScanItems(Filter{}, 200, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 200 || encoded() != 200 {
		t.Fatalf("the first page took %d records and encoded %d, want 200 and 200", len(first), encoded())
	}
	step("the same page again", 0, page(""))
	step("the rest of the walk", 100, page(next))
	step("the flush", 0, s.Flush)
	appendChunks(t, s, genRecords(4, 300), 10)
	step("an unpaged flush", 300, s.Flush)
	step("compacting two flushed segments", 0, func() error { return s.Compact(0) })
	if n := s.SegmentCount(); n != 1 {
		t.Fatalf("%d segments after the compaction, want 1", n)
	}
}

// TestEncodingsRaceWriters pages through a store while appends, flushes
// and compactions run, under a cache budget small enough to evict;
// meaningful under -race. Every item, whether encoded by its page, kept
// from an earlier one, flushed or compacted, is its record's encoding.
func TestEncodingsRaceWriters(t *testing.T) {
	raw := badUTF8(genRecords(7, 400))
	byTask := make(map[string]Record, len(raw))
	for _, r := range raw {
		byTask[r.TaskID] = r
	}
	s, err := Open(t.TempDir(), Options{FlushEvery: 24, TargetFrames: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cache.budget = 100
	check := func(page []Item) {
		for _, it := range page {
			r := byTask[it.Key.TaskID]
			r.Seq = it.Seq
			want, err := json.Marshal(&r)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(it.JSON, want) {
				t.Errorf("seq %d is served as\n%s\nand encodes to\n%s", it.Seq, it.JSON, want)
				return
			}
		}
	}
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(limit int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for cursor := ""; ; {
					page, next, err := s.ScanItems(Filter{}, limit, cursor)
					if err != nil {
						t.Error(err)
						return
					}
					check(page)
					if next == "" {
						break
					}
					cursor = next
				}
			}
		}(5 + 20*g)
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < len(raw); i += 8 {
			if err := s.Append(raw[i : i+8]...); err != nil {
				t.Error(err)
				return
			}
			if i%56 == 0 {
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 12; i++ {
			if err := s.Compact(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	check(items(t, s, 0))
}
