package store

import (
	"encoding/json"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// memoCorpus is genFoldRecords laid out so that sealed runs of 32 can be
// covered: ticks climb two per run, and the country and the ASN change
// every 64 and 96 records, so some runs hold one country, or one ASN, or
// both.
func memoCorpus(n int) []Record {
	recs := genFoldRecords(3, n)
	countries := []string{"NG", "KE", "ZA"}
	asns := []topology.ASN{2905, 36900, 9}
	for i := range recs {
		recs[i].Tick = int64(1 + i/16)
		recs[i].Country = countries[i/64%len(countries)]
		recs[i].ASN = asns[i/96%len(asns)]
	}
	return recs
}

// memoFilters: no filter, filters that cover some runs whole and split
// others (a window whose ends fall inside runs, one country, one ASN, the
// one experiment) and ones no run is covered by (an unindexed field).
var memoFilters = []Filter{
	{},
	{FromTick: 4, ToTick: 13},
	{FromTick: 3},
	{Country: "KE"},
	{ASN: 36900},
	{Country: "NG", ASN: 2905, ToTick: 9},
	{Experiment: "exp-0001"},
	{Kind: string(probes.TaskWebsteps)},
	{Verdict: "dns_blocked"},
}

// memoShapes builds a store holding sealed and tail records through a
// memory store, flushes, a cold reopen and a compaction.
var memoShapes = []struct {
	name  string
	build func(t *testing.T, sealed, tail []Record) *Store
}{
	{"memory", func(t *testing.T, sealed, tail []Record) *Store {
		s := NewMemory(Options{FlushEvery: 32, TargetFrames: 128})
		appendChunks(t, s, sealed, 8)
		appendChunks(t, s, tail, 8)
		return s
	}},
	{"flushed", func(t *testing.T, sealed, tail []Record) *Store {
		s := openDup(t, t.TempDir())
		appendChunks(t, s, sealed, 8)
		appendChunks(t, s, tail, 8)
		return s
	}},
	{"cold", func(t *testing.T, sealed, tail []Record) *Store {
		s := openDup(t, t.TempDir())
		appendChunks(t, s, sealed, 8)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openDup(t, s.dir)
		appendChunks(t, s, tail, 8)
		return s
	}},
	{"compacted", func(t *testing.T, sealed, tail []Record) *Store {
		s := openDup(t, t.TempDir())
		appendChunks(t, s, sealed[:len(sealed)/2], 8)
		if err := s.Compact(0); err != nil {
			t.Fatal(err)
		}
		appendChunks(t, s, sealed[len(sealed)/2:], 8)
		appendChunks(t, s, tail, 8)
		return s
	}},
}

// foldsJSON renders, per filter and group_by, a store's Aggregate and its
// Fold as JSON, twice over: the second pass reads memos the first built,
// after the first's reports sorted samples.
func foldsJSON(t *testing.T, s *Store, filters []Filter) []byte {
	t.Helper()
	var out []byte
	for pass := 0; pass < 2; pass++ {
		for _, f := range filters {
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
				for _, v := range []any{rep, fold} {
					raw, err := json.Marshal(v)
					if err != nil {
						t.Fatal(err)
					}
					out = append(append(out, raw...), '\n')
				}
			}
		}
	}
	return out
}

// TestIndexAnswersAreSound: a sealed run's index never lies. For every
// filter parameter, a run whose meta covers the filter holds only records
// that match it, and a run mayMatch rules out holds none. covers' list of
// the filters the index does not carry decides whether the sealed fold
// is used whole, so a parameter it misses fails here.
func TestIndexAnswersAreSound(t *testing.T) {
	s := NewMemory(Options{FlushEvery: 32, TargetFrames: 128})
	appendChunks(t, s, memoCorpus(384), 8)
	samples := map[string]string{
		"experiment": "exp-0001", "country": "KE", "asn": "36900",
		"kind": string(probes.TaskWebsteps), "verdict": "dns_blocked",
		"resolver_chain": "stub>authority", "ecs": "true", "from_tick": "5", "to_tick": "9",
	}
	for _, p := range FilterParams() {
		v, ok := samples[p.Name]
		if !ok {
			t.Errorf("filter parameter %q has no sample value", p.Name)
			continue
		}
		f, err := ParseFilter(url.Values{p.Name: {v}})
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range s.segs {
			d, err := s.load(sg)
			if err != nil {
				t.Fatal(err)
			}
			matched := 0
			for i := range d.recs {
				if f.match(&d.recs[i]) {
					matched++
				}
			}
			if sg.meta.covers(f) && matched != len(d.recs) {
				t.Errorf("%s=%s: covered run of %d records has %d that match", p.Name, v, len(d.recs), matched)
			}
			if !sg.meta.mayMatch(f) && matched != 0 {
				t.Errorf("%s=%s: run ruled out by its index has %d matches", p.Name, v, matched)
			}
		}
	}
}

// TestFoldMemosRaceReaders runs aggregates, folds and a coordinator-style
// merge and report of the returned folds against appends, flushes and
// compactions of one store; meaningful under -race, where a fold that
// shared a memo's samples or verdict maps would be caught being sorted or
// appended to while another reader merges it.
func TestFoldMemosRaceReaders(t *testing.T) {
	raw := memoCorpus(512)
	for _, shape := range []struct {
		name string
		s    *Store
	}{
		{"memory", NewMemory(Options{FlushEvery: 32, TargetFrames: 128})},
		{"disk", openDup(t, t.TempDir())},
	} {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.s
			appendChunks(t, s, raw[:128], 8)
			done := make(chan struct{})
			var readers, writers sync.WaitGroup
			for g := 0; g < 3; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						q := AggQuery{Filter: memoFilters[(g+i)%3], GroupBy: GroupByModes[(g+i)%len(GroupByModes)]}
						if _, err := s.Aggregate(q); err != nil {
							t.Error(err)
							return
						}
						merged, _ := NewFolder(q.GroupBy)
						for k := 0; k < 2; k++ {
							fold, err := s.Fold(q)
							if err == nil {
								err = merged.Merge(fold)
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
						merged.Report()
					}
				}(g)
			}
			writers.Add(2)
			go func() {
				defer writers.Done()
				for i := 128; i < len(raw); i += 8 {
					if err := s.Append(raw[i:min(i+8, len(raw))]...); err != nil {
						t.Error(err)
						return
					}
					if i%96 == 0 {
						if err := s.Flush(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			go func() {
				defer writers.Done()
				for i := 0; i < 10; i++ {
					if err := s.Compact(0); err != nil {
						t.Error(err)
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
			for _, gb := range GroupByModes {
				q := AggQuery{GroupBy: gb}
				got, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := foldOf(t, gb, raw).Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("group %q after the race\nwant: %+v\ngot:  %+v", gb, want, got)
				}
			}
		})
	}
}
