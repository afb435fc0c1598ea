package federation

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

var benchSink int

// benchCoordinator is fed_4shard's store shape without the HTTP front
// end: 6 400 records spread evenly over four in-process durable shards,
// each one sealed 1 024-record segment and a memtable.
func benchCoordinator(b *testing.B) *Coordinator {
	c, err := New("", testConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	rng := rand.New(rand.NewSource(1))
	countries := []string{"NG", "KE", "ZA", "RW"}
	for s := 0; s < 4; s++ {
		ctrl, err := core.Recover(b.TempDir(), core.DurabilityConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ctrl.Close() })
		recs := make([]store.Record, 1600)
		for i := range recs {
			id := fmt.Sprintf("s%d-t%04d", s, i)
			recs[i] = store.Record{
				Experiment: "fexp-0001", TaskID: id, ProbeID: fmt.Sprintf("p%02d", rng.Intn(40)), Tick: int64(1 + rng.Intn(50)),
				Country: countries[rng.Intn(len(countries))], ASN: topology.ASN(36900 + rng.Intn(4)),
				Result: probes.Result{TaskID: id, Experiment: "fexp-0001", Kind: probes.TaskPing,
					OK: rng.Intn(10) != 0, RTTms: 5 + 200*rng.Float64()},
			}
		}
		for i := 0; i < len(recs); i += 64 { // an Append flushes at most once
			if err := ctrl.ResultStore().Append(recs[i : i+64]...); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.AddShard(fmt.Sprintf("shard-%d", s), NewLocalShard(ctrl)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkFederatedAggregate is fed_4shard's full aggregate, grouped by
// country and ASN — four parallel shard folds, one merge, one report.
func BenchmarkFederatedAggregate(b *testing.B) {
	c := benchCoordinator(b)
	q := store.AggQuery{GroupBy: store.GroupCountryASN}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, meta, err := c.Aggregate(q)
		if err != nil || meta.Degraded || rep.Matched != 6400 {
			b.Fatalf("matched %d, meta %+v, err %v", rep.Matched, meta, err)
		}
		benchSink += len(rep.Groups)
	}
}

// BenchmarkFederatedScanPage is fed_4shard's first scan page as op=scan
// serves it: 200 items of one country — four parallel shard pages of up
// to 200 each, one merge.
func BenchmarkFederatedScanPage(b *testing.B) {
	c := benchCoordinator(b)
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
}
