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

// BenchmarkFederatedAggregate is fed_4shard's full aggregate without the
// HTTP front end: 6 400 records spread evenly over four in-process
// shards, grouped by country and ASN — four parallel shard folds, one
// merge, one report.
func BenchmarkFederatedAggregate(b *testing.B) {
	c, err := New("", testConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	countries := []string{"NG", "KE", "ZA", "RW"}
	for s := 0; s < 4; s++ {
		ctrl := core.NewController(testOwner)
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
		if err := ctrl.ResultStore().Append(recs...); err != nil {
			b.Fatal(err)
		}
		if err := c.AddShard(fmt.Sprintf("shard-%d", s), NewLocalShard(ctrl)); err != nil {
			b.Fatal(err)
		}
	}
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
