package store

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// The dedup tests below read stores holding duplicate keys whose first
// copy lies outside the tick window and the country the filters ask for,
// while a later copy lies inside both: a read keeps the first copy that
// its filter matches, not the first copy.

var (
	dupWindow  = Filter{FromTick: 10, ToTick: 30}
	dupCountry = Filter{Country: "KE"}
	dupQueries = []AggQuery{
		{GroupBy: GroupCountryASN},
		{Filter: dupWindow, GroupBy: GroupCountryASN},
		{Filter: dupCountry, GroupBy: GroupASN},
		{Filter: Filter{FromTick: 10, ToTick: 30, Country: "KE"}},
	}
)

// dupCorpus returns 256 records for the sealed part of a store (eight
// 32-record segments) and 24 for its memtable. A duplicated key's first
// copy is at tick 5 in NG, its later copy at tick 20 in KE, with an RTT
// (999 ms) no generated record has. The pairs sit within one segment,
// in two segments, in a segment and the memtable, and within the
// memtable.
func dupCorpus() (sealed, tail []Record) {
	sealed = genRecords(7, 256)
	tail = genRecords(8, 24)
	for i := range tail {
		tail[i].TaskID += "-tail"
	}
	first := func(r *Record) Record {
		r.Tick, r.Country = 5, "NG"
		d := *r
		d.Tick, d.Country, d.Result.RTTms, d.Result.OK = 20, "KE", 999, true
		return d
	}
	for _, p := range [][2]int{{3, 7}, {67, 71}, {130, 134}, {10, 110}, {40, 200}} {
		sealed[p[1]] = first(&sealed[p[0]])
	}
	tail[5] = first(&sealed[12])
	tail[9] = first(&sealed[50])
	tail[17] = first(&tail[2])
	return sealed, tail
}

// dupStores names a builder per store shape that holds the corpus:
// memory segments, flushed disk segments (cache seeded by the flush),
// cold-loaded ones (reopened before the memtable is filled) and
// compacted ones. Each returns the store and every record in append
// order, seqs assigned.
var dupStores = []struct {
	name  string
	build func(t *testing.T) (*Store, []Record)
}{
	{"memory", func(t *testing.T) (*Store, []Record) {
		return fillDup(t, NewMemory(Options{FlushEvery: 32}), nil)
	}},
	{"flushed", func(t *testing.T) (*Store, []Record) {
		return fillDup(t, openDup(t, t.TempDir()), nil)
	}},
	{"cold", func(t *testing.T) (*Store, []Record) {
		return fillDup(t, openDup(t, t.TempDir()), func(s *Store) *Store {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return openDup(t, s.dir)
		})
	}},
	{"compacted", func(t *testing.T) (*Store, []Record) {
		return fillDup(t, openDup(t, t.TempDir()), func(s *Store) *Store {
			if err := s.Compact(0); err != nil {
				t.Fatal(err)
			}
			return s
		})
	}},
}

func openDup(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{FlushEvery: 32, TargetFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fillDup appends the sealed part, hands the store to between (when set)
// and appends the memtable part to what it returns.
func fillDup(t *testing.T, s *Store, between func(*Store) *Store) (*Store, []Record) {
	t.Helper()
	sealed, tail := dupCorpus()
	appendChunks(t, s, sealed, 8)
	if s.MemtableLen() != 0 {
		t.Fatalf("%d sealed-part records left in the memtable", s.MemtableLen())
	}
	if between != nil {
		s = between(s)
	}
	appendChunks(t, s, tail, 8)
	if s.MemtableLen() != len(tail) {
		t.Fatalf("memtable holds %d records, want %d", s.MemtableLen(), len(tail))
	}
	return s, append(sealed, tail...)
}

// TestFirstMatchingCopyWins reads every store shape through Aggregate,
// Fold, an unlimited ScanPage and a paged walk, and compares each with
// the oracles over the records in append order.
func TestFirstMatchingCopyWins(t *testing.T) {
	for _, shape := range dupStores {
		t.Run(shape.name, func(t *testing.T) {
			s, all := shape.build(t)
			for _, q := range dupQueries {
				want := bruteScan(all, q.Filter)
				if q.Filter != (Filter{}) && countRTT(want, 999) != 8 {
					t.Fatalf("%+v: the oracle keeps %d later copies, the corpus has 8", q.Filter, countRTT(want, 999))
				}
				wantAgg := naiveAggregate(want, q)
				got, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, wantAgg) {
					t.Fatalf("aggregate %+v\nwant: %+v\ngot:  %+v", q, wantAgg, got)
				}
				fold, err := s.Fold(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := fold.Report(); !reflect.DeepEqual(got, wantAgg) {
					t.Fatalf("fold %+v\nwant: %+v\ngot:  %+v", q, wantAgg, got)
				}
				full, _, err := s.ScanPage(q.Filter, 0, "")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full, want) {
					t.Fatalf("scan %+v: %d records, oracle has %d", q.Filter, len(full), len(want))
				}
				if paged := walk(t, s, q.Filter, 7); !reflect.DeepEqual(paged, want) {
					t.Fatalf("walk %+v: %d records, oracle has %d", q.Filter, len(paged), len(want))
				}
			}
		})
	}
}

func countRTT(recs []Record, rtt float64) int {
	n := 0
	for _, r := range recs {
		if r.Result.RTTms == rtt {
			n++
		}
	}
	return n
}

// readsJSON renders every read of a store as bytes: per query the
// Aggregate report, the Fold and the ScanItems pages of a walk 7 at a
// time and of an unlimited scan.
func readsJSON(t *testing.T, s *Store) []byte {
	t.Helper()
	var out []byte
	add := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, raw...), '\n')
	}
	for _, q := range append(dupQueries, equivalenceQueries...) {
		rep, err := s.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		add(rep)
		fold, err := s.Fold(q)
		if err != nil {
			t.Fatal(err)
		}
		add(fold)
		for _, limit := range []int{7, 0} {
			for cursor := ""; ; {
				items, next, err := s.ScanItems(q.Filter, limit, cursor)
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range items {
					out = append(append(out, it.JSON...), '\n')
				}
				add(next)
				if next == "" {
					break
				}
				cursor = next
			}
		}
	}
	return out
}

// TestEveryKeyRepeating builds each store shape twice, once with a key
// hash that maps every key to one value — so every record of an eager
// read goes through the exact dedup set — and once with the real one.
// The two must read alike, byte for byte.
func TestEveryKeyRepeating(t *testing.T) {
	for _, shape := range dupStores {
		t.Run(shape.name, func(t *testing.T) {
			withReal, _ := shape.build(t)
			want := readsJSON(t, withReal)
			realHash := keyHash
			keyHash = func(string, string) uint64 { return 42 }
			defer func() { keyHash = realHash }()
			constant, _ := shape.build(t)
			if got := readsJSON(t, constant); string(got) != string(want) {
				t.Fatalf("reads under a constant key hash differ from the real hash's:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestEagerReadsRaceWriters runs aggregates and unlimited scans against
// appends (which write the memtable's summary), flushes and compactions
// of one store; meaningful under -race. The records repeat keys, and
// every scan must be the oracle over the prefix of them it saw.
func TestEagerReadsRaceWriters(t *testing.T) {
	sealed, tail := dupCorpus()
	raw := append(sealed, tail...)
	want := make([]Record, len(raw)) // raw as Append will number it
	for i := range raw {
		want[i] = raw[i]
		want[i].Seq = uint64(i + 1)
	}
	for _, shape := range []struct {
		name string
		s    *Store
	}{
		{"memory", NewMemory(Options{FlushEvery: 32, TargetFrames: 128})},
		{"disk", openDup(t, t.TempDir())},
	} {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.s
			done := make(chan struct{})
			var readers, writers sync.WaitGroup
			for g := 0; g < 2; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						q := dupQueries[(g+i)%len(dupQueries)]
						full, _, err := s.ScanPage(Filter{}, 0, "")
						if err != nil {
							t.Errorf("scan: %v", err)
							return
						}
						if n := len(full); n > 0 {
							if oracle := bruteScan(want[:full[n-1].Seq], Filter{}); !reflect.DeepEqual(full, oracle) {
								t.Errorf("scan of %d records is not the oracle's %d over its prefix", n, len(oracle))
								return
							}
						}
						if _, err := s.Aggregate(q); err != nil {
							t.Errorf("aggregate: %v", err)
							return
						}
					}
				}(g)
			}
			writers.Add(2)
			go func() {
				defer writers.Done()
				for i := 0; i < len(raw); i += 5 {
					if err := s.Append(raw[i:min(i+5, len(raw))]...); err != nil {
						t.Errorf("append: %v", err)
						return
					}
					if i%45 == 0 {
						if err := s.Flush(); err != nil {
							t.Errorf("flush: %v", err)
							return
						}
					}
				}
			}()
			go func() {
				defer writers.Done()
				for i := 0; i < 20; i++ {
					if err := s.Compact(0); err != nil {
						t.Errorf("compact: %v", err)
						return
					}
				}
			}()
			writers.Wait()
			close(done)
			readers.Wait()
			if t.Failed() {
				return
			}
			for _, q := range dupQueries {
				got, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				if w := naiveAggregate(bruteScan(want, q.Filter), q); !reflect.DeepEqual(got, w) {
					t.Fatalf("aggregate %+v after the race\nwant: %+v\ngot:  %+v", q, w, got)
				}
			}
		})
	}
}
