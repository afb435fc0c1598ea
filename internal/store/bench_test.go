package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// The read-path benchmarks run fleet_sync's store size: 6 400 records
// in six default-sized (1024-record) sealed segments plus 256 more, a
// page of 200 of one country and the unfiltered grouped aggregate.
// Cold reopens the store for every iteration, so each one decodes from
// disk; warm queries one open store again and again. Both close the
// store first, so the 256 are a seventh segment and every record's
// group is drawn at random; AggregateSync keeps fleet_sync's order and
// memtable as well.

var (
	benchPage = Filter{Country: "KE"}
	benchAgg  = AggQuery{GroupBy: GroupCountryASN}
	benchSink int
)

func benchDir(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	raw := genRecords(1, 6400)
	for i := 0; i < len(raw); i += 4 {
		if err := s.Append(raw[i : i+4]...); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func benchQueries(b *testing.B, cold bool, query func(*Store) (int, error)) {
	dir := benchDir(b)
	open := func() *Store {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := open()
	if _, err := query(s); err != nil { // warm: the first query fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			s = open()
		}
		n, err := query(s)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += n
	}
}

func scanFirstPage(s *Store) (int, error) {
	recs, _, err := s.ScanPage(benchPage, 200, "")
	return len(recs), err
}

func aggregateAll(s *Store) (int, error) {
	rep, err := s.Aggregate(benchAgg)
	return len(rep.Groups), err
}

func BenchmarkScanPageCold(b *testing.B)  { benchQueries(b, true, scanFirstPage) }
func BenchmarkScanPageWarm(b *testing.B)  { benchQueries(b, false, scanFirstPage) }
func BenchmarkAggregateCold(b *testing.B) { benchQueries(b, true, aggregateAll) }
func BenchmarkAggregateWarm(b *testing.B) { benchQueries(b, false, aggregateAll) }

// syncBatches lays out fleet_sync's ingest: 800 probes spread over 8
// countries and 64 ASNs (bench/gen.go), each delivering 8 results in
// leases of 4, the probes' leases in a seeded order. A lease is one
// Append, so a probe's results sit side by side.
func syncBatches(seed int64) [][]Record {
	countries := []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}
	rng := rand.New(rand.NewSource(seed))
	var batches [][]Record
	for p := 0; p < 800; p++ {
		for lease := 0; lease < 2; lease++ {
			var batch []Record
			for t := 0; t < 4; t++ {
				id := fmt.Sprintf("exp-0001-p%03d-t%d", p, 4*lease+t)
				r := Record{Experiment: "exp-0001", TaskID: id, ProbeID: fmt.Sprintf("pr-%03d", p),
					Country: countries[p%8], ASN: topology.ASN(36900 + p/8%64),
					Result: probes.Result{TaskID: id, Experiment: "exp-0001", Kind: probes.TaskPing, OK: rng.Intn(10) != 0}}
				if r.Result.OK {
					r.Result.RTTms = 5 + 200*rng.Float64()
				}
				batch = append(batch, r)
			}
			batches = append(batches, batch)
		}
	}
	rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	for i, b := range batches {
		for j := range b {
			b[j].Tick = int64(1 + i/16)
		}
	}
	return batches
}

// syncStore is fleet_sync's store as its syncs leave it, in dir: six
// sealed segments and 256 records in the memtable.
func syncStore(b *testing.B, dir string) *Store {
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for _, batch := range syncBatches(1) {
		if err := s.Append(batch...); err != nil {
			b.Fatal(err)
		}
	}
	if s.SegmentCount() != 6 || s.MemtableLen() != 256 {
		b.Fatalf("%d segments and %d records in the memtable, want 6 and 256", s.SegmentCount(), s.MemtableLen())
	}
	return s
}

// BenchmarkAggregateSync is the warm grouped aggregate over fleet_sync's
// store (syncStore).
func BenchmarkAggregateSync(b *testing.B) {
	s := syncStore(b, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := aggregateAll(s)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += n
	}
}

// BenchmarkAggregateWithRepeat is BenchmarkAggregateSync over a store
// that holds a crash window's duplicate: a later copy of its first
// record, sealed with the memtable, so no read of it is repeat-free.
func BenchmarkAggregateWithRepeat(b *testing.B) {
	s := syncStore(b, b.TempDir())
	if err := s.Append(syncBatches(1)[0][0]); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, err := aggregateAll(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := aggregateAll(s)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += n
	}
}

// BenchmarkAggregateAfterFlush is the first grouped aggregate, as
// op=aggregate writes it (Fold, then AppendReport), after a flush: each
// iteration appends one flush's worth of fleet_sync's ingest (1 024
// records, another experiment's) to a store of fleet_sync's shape that
// has answered the aggregate before, with the timer stopped, then times
// the aggregate. A fresh store every six iterations, the last one closed
// and removed, keeps the history between 7 and 12 segments.
func BenchmarkAggregateAfterFlush(b *testing.B) {
	root := b.TempDir()
	more := syncBatches(2)
	for _, batch := range more {
		for j := range batch {
			batch[j].Experiment, batch[j].TaskID = "exp-0002", batch[j].TaskID+"-2"
		}
	}
	var s *Store
	aggregate := func() int {
		fold, err := s.Fold(benchAgg)
		if err != nil {
			b.Fatal(err)
		}
		body, _ := fold.AppendReport(nil)
		return len(body)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%6 == 0 {
			if s != nil {
				s.Close()
				os.RemoveAll(filepath.Join(root, strconv.Itoa(i-6)))
			}
			s = syncStore(b, filepath.Join(root, strconv.Itoa(i)))
			aggregate()
		}
		for _, batch := range more[256*(i%6) : 256*(i%6+1)] {
			if err := s.Append(batch...); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		benchSink += aggregate()
	}
}

// BenchmarkScanWalkSync is a warm wire walk, 200 records a page, through
// every KE record of fleet_sync's store (syncStore): the pages a client
// of op=scan reads one after the other.
func BenchmarkScanWalkSync(b *testing.B) {
	s := syncStore(b, b.TempDir())
	walk := func() int {
		n := 0
		for cursor := ""; ; {
			items, next, err := s.ScanItems(benchPage, 200, cursor)
			if err != nil {
				b.Fatal(err)
			}
			if n += len(items); next == "" {
				return n
			}
			cursor = next
		}
	}
	walk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += walk()
	}
}

// BenchmarkScanItemsMemtable is a warm wire page over a fed_4shard
// shard's store: 1 600 records of fleet_sync's ingest, 1 024 of them in
// a sealed segment and 576 in the memtable, and a page of 200 of one of
// its 8 countries, which takes records from both.
func BenchmarkScanItemsMemtable(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, batch := range syncBatches(1)[:400] {
		if err := s.Append(batch...); err != nil {
			b.Fatal(err)
		}
	}
	if s.SegmentCount() != 1 || s.MemtableLen() != 576 {
		b.Fatalf("%d segments and %d records in the memtable, want 1 and 576", s.SegmentCount(), s.MemtableLen())
	}
	page := func() int {
		items, _, err := s.ScanItems(benchPage, 200, "")
		if err != nil {
			b.Fatal(err)
		}
		return len(items)
	}
	page()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += page()
	}
}
