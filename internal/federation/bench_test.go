package federation

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

var benchSink int

// benchCoordinator is fed_4shard's store shape without the HTTP front
// end: its fleet of 800 probes over 8 countries and 64 ASNs, each probe's
// 8 pings on the shard the ring names for it, 4 a sync over two rounds of
// the fleet. That is 6 400 records in 512 country/ASN groups of about a
// dozen samples on four in-process durable shards, split as unevenly as
// the ring splits the fleet: each holds sealed 1 024-record segments and a
// memtable.
func benchCoordinator(b testing.TB) *Coordinator {
	c, err := New("", testConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	ctrls := map[string]*core.Controller{}
	for s := 0; s < 4; s++ {
		ctrl, err := core.Recover(b.TempDir(), core.DurabilityConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ctrl.Close() })
		id := fmt.Sprintf("shard-%d", s)
		if err := c.AddShard(id, NewLocalShard(ctrl)); err != nil {
			b.Fatal(err)
		}
		ctrls[id] = ctrl
	}
	rng := rand.New(rand.NewSource(1))
	countries := []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}
	slots := rng.Perm(800) // as the benchmark's fleet generator lays probes out
	for round := 0; round < 2; round++ {
		for p, slot := range slots {
			probe := fmt.Sprintf("p-%06d", p)
			recs := make([]store.Record, 4)
			for i := range recs {
				id := fmt.Sprintf("fexp-0001-t%05d", 8*p+4*round+i)
				recs[i] = store.Record{
					Experiment: "fexp-0001", TaskID: id, ProbeID: probe, Tick: int64(1 + round),
					Country: countries[slot%len(countries)], ASN: topology.ASN(36900 + slot/len(countries)%64),
					Result: probes.Result{TaskID: id, Experiment: "fexp-0001", Kind: probes.TaskPing,
						OK: rng.Intn(10) != 0, RTTms: 5 + 200*rng.Float64()},
				}
			}
			if err := ctrls[c.book.ring.owner(probe)].ResultStore().Append(recs...); err != nil {
				b.Fatal(err)
			}
		}
	}
	return c
}

// BenchmarkFederatedAggregate is fed_4shard's full aggregate, grouped by
// country and ASN — four parallel shard folds, one merge, one report of
// 512 groups.
func BenchmarkFederatedAggregate(b *testing.B) {
	c := benchCoordinator(b)
	q := store.AggQuery{GroupBy: store.GroupCountryASN}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, meta, err := c.Aggregate(q)
		if err != nil || meta.Degraded || rep.Matched != 6400 || len(rep.Groups) != 512 {
			b.Fatalf("matched %d in %d groups, meta %+v, err %v", rep.Matched, len(rep.Groups), meta, err)
		}
		benchSink += len(rep.Groups)
	}
}

// touch is the i-th 4-record sync of one probe: a ping each to NG's first
// four ASNs, groups every shard's fold holds.
func touch(i int) []store.Record {
	recs := make([]store.Record, 4)
	for k := range recs {
		id := fmt.Sprintf("fexp-0002-t%07d", 4*i+k)
		recs[k] = store.Record{Experiment: "fexp-0002", TaskID: id, ProbeID: "p-000000", Tick: 3, Country: "NG", ASN: topology.ASN(36900 + k),
			Result: probes.Result{TaskID: id, Experiment: "fexp-0002", Kind: probes.TaskPing, OK: true, RTTms: float64(10 + i%50)}}
	}
	return recs
}

// BenchmarkFederatedAggregateHTTP is fed_4shard's full aggregate as
// op=aggregate serves it, through the coordinator's handler: quiet, with
// nothing written between queries, so every group of the last report is
// spliced; touched, after a 4-record sync to one shard before each query;
// cold, with the last report dropped before each query, so every group is
// finished.
func BenchmarkFederatedAggregateHTTP(b *testing.B) {
	for _, mode := range []string{"quiet", "touched", "cold"} {
		b.Run(mode, func(b *testing.B) {
			c := benchCoordinator(b)
			h, shard := c.Handler(), c.shards["shard-0"].slot.(*LocalShard).Controller().ResultStore()
			req := httptest.NewRequest(http.MethodGet, "/api/v1/query?op=aggregate&group_by=country_asn", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch mode {
				case "touched":
					if err := shard.Append(touch(i)...); err != nil {
						b.Fatal(err)
					}
				case "cold":
					c.reports[store.GroupCountryASN] = &store.ReportMemo{Count: func(int, int) {}}
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK || w.Body.Len() < 512*100 {
					b.Fatalf("status %d, %d bytes: %s", w.Code, w.Body.Len(), w.Body.Bytes()[:min(w.Body.Len(), 200)])
				}
				benchSink += w.Body.Len()
			}
		})
	}
}

// benchShards names the shard layouts the scan benchmarks run over:
// fed_4shard's in-process shards; the same four shards as remote obsds
// over loopback sockets (HTTPShard); and those again behind a 2 ms round
// trip, well under a link between regions. A scan asks in-process shards
// for shares and remote ones for the page: these are the two sides.
var benchShards = []struct {
	name  string
	delay time.Duration // -1: in process
}{{"local", -1}, {"loopback", 0}, {"rtt_2ms", 2 * time.Millisecond}}

// benchScanCoordinator is benchCoordinator with its shards in process
// (delay < 0) or each served by its controller's handler on a socket,
// every request held delay first, under the same ids — so the same
// records — behind a second coordinator.
func benchScanCoordinator(b testing.TB, delay time.Duration) *Coordinator {
	local := benchCoordinator(b)
	if delay < 0 {
		return local
	}
	c, err := New("", testConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	for s := 0; s < 4; s++ {
		id := fmt.Sprintf("shard-%d", s)
		h := local.shards[id].slot.(*LocalShard).Controller().Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			h.ServeHTTP(w, r)
		}))
		b.Cleanup(srv.Close)
		if err := c.AddShard(id, NewHTTPShard(core.NewClientSeeded(srv.URL, int64(s)))); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkFederatedScanPage is fed_4shard's first scan page: 200 items
// of one country, from four shards, one merge.
func BenchmarkFederatedScanPage(b *testing.B) {
	for _, sh := range benchShards {
		b.Run(sh.name, func(b *testing.B) {
			c := benchScanCoordinator(b, sh.delay)
			f := store.Filter{Country: "KE"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items, next, meta, err := c.ScanItems(f, 200, "")
				if err != nil || meta.Degraded || len(items) != 200 || next == "" {
					b.Fatalf("%d items, next %q, meta %+v, err %v", len(items), next, meta, err)
				}
				benchSink += len(items)
			}
		})
	}
}

// BenchmarkFederatedScanWalk is fed_4shard's scan walk as op=scan serves
// it: every page of 200 of one country's 800 records, each behind the
// last page's cursor, through the coordinator's handler.
func BenchmarkFederatedScanWalk(b *testing.B) {
	for _, sh := range benchShards {
		b.Run(sh.name, func(b *testing.B) {
			c := benchScanCoordinator(b, sh.delay)
			h := c.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pages, cursor := 0, ""
				for {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?op=scan&country=KE&limit=200&cursor="+url.QueryEscape(cursor), nil))
					if w.Code != http.StatusOK {
						b.Fatalf("page %d: status %d: %s", pages, w.Code, w.Body.Bytes())
					}
					pages++
					benchSink += w.Body.Len()
					// The cursor is the body's one next_cursor: shard ids and
					// seqs, nothing JSON escapes.
					body := w.Body.Bytes()
					at := bytes.LastIndex(body, []byte(`"next_cursor":"`))
					if at < 0 {
						break
					}
					body = body[at+len(`"next_cursor":"`):]
					cursor = string(body[:bytes.IndexByte(body, '"')])
				}
				if pages != 4 {
					b.Fatalf("the walk took %d pages, want 4", pages)
				}
			}
		})
	}
}
