package store

import "testing"

// The read-path benchmarks run fleet_sync's store shape: 6 400 records
// in six default-sized (1024-record) sealed segments plus a memtable,
// a page of 200 of one country and the unfiltered grouped aggregate.
// Cold reopens the store for every iteration, so each one decodes from
// disk; warm queries one open store again and again.

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
