package federation

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// memoFleet is a coordinator over three durable in-process shards, which
// fail over, and one remote shard behind its own socket, with 24 probes
// over 6 countries and 4 ASNs registered and each given 12 pings.
type memoFleet struct {
	*Local
	probes []core.ProbeInfo
	tasks  map[string][]probes.Task // each probe's leased, unanswered tasks
	rng    *rand.Rand
}

func newMemoFleet(t *testing.T) *memoFleet {
	t.Helper()
	l, err := BootLocal(t.TempDir(), 3, durableShards, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := l.AddShard("shard-3", NewHTTPShard(serveClient(t, core.NewController(testOwner).Handler(), 3))); err != nil {
		t.Fatal(err)
	}
	m := &memoFleet{Local: l, tasks: map[string][]probes.Task{}, rng: rand.New(rand.NewSource(5))}
	countries := []string{"NG", "KE", "ZA", "GH", "SN", "EG"}
	for i := range 24 {
		p := core.ProbeInfo{ID: fmt.Sprintf("p-%06d", i), Country: countries[i%6], ASN: topology.ASN(64500 + i/6)}
		if err := l.Register(ctx, p); err != nil {
			t.Fatal(err)
		}
		m.probes = append(m.probes, p)
	}
	if _, err := submit(l.Coordinator, "memo", "memo workload", testAssignments(m.probes, 12)); err != nil {
		t.Fatal(err)
	}
	return m
}

// round has one probe answer what it holds and lease up to three more:
// one sync, which touches the probe's shard alone. Results draw their RTT,
// outcome, verdict, resolver, chain and client-subnet flag at random, so
// every group_by splits them.
func (m *memoFleet) round(t *testing.T, p core.ProbeInfo) {
	t.Helper()
	rs := make([]probes.Result, 0, len(m.tasks[p.ID]))
	for _, task := range m.tasks[p.ID] {
		rs = append(rs, probes.Result{
			TaskID: task.ID, Experiment: task.Experiment, ProbeID: p.ID, Kind: task.Kind,
			OK: m.rng.Intn(6) != 0, RTTms: 1 + 300*m.rng.Float64(),
			Verdict:       []string{"", "ok", "dns_blocked"}[m.rng.Intn(3)],
			ResolverKind:  []string{"cloud", "same-country"}[m.rng.Intn(2)],
			ResolverChain: []string{"stub>authority", "stub>cache>authority"}[m.rng.Intn(2)],
			ECS:           m.rng.Intn(2) == 0,
		})
	}
	resp, err := m.Sync(ctx, core.SyncRequest{ProbeID: p.ID, Results: rs, Max: 3}, 0)
	if err != nil {
		t.Fatalf("sync %s: %v", p.ID, err)
	}
	m.tasks[p.ID] = resp.Tasks
}

// aggregate is the coordinator handler's answer to op=aggregate.
func aggregate(h http.Handler, q store.AggQuery) *httptest.ResponseRecorder {
	v := q.Filter.Values()
	v.Set("op", "aggregate")
	v.Set("group_by", q.GroupBy)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?"+v.Encode(), nil))
	return w
}

// served is aggregate's body, which must be a 200's.
func served(t *testing.T, h http.Handler, q store.AggQuery) []byte {
	t.Helper()
	w := aggregate(h, q)
	if w.Code != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", q, w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}

// unremembered is the response to q written from a fold of it reported
// in full, as AggReport.AppendJSON writes it: what the kept report must
// not change a byte of.
func unremembered(t *testing.T, c *Coordinator, q store.AggQuery) []byte {
	t.Helper()
	fold, meta, err := c.Fold(q)
	if err != nil {
		t.Fatalf("%+v: %v", q, err)
	}
	rep := fold.Report()
	w := httptest.NewRecorder()
	core.WriteAggReport(w, &rep, meta)
	return w.Body.Bytes()
}

// TestReportMemoIsReport: every aggregate the coordinator serves is, byte
// for byte, the report of the same merged fold written in full, whatever
// its last report of the query kept. For three filters (none, a country, a
// tick window), each on a fleet of its own so that every read consults the
// last one of its query, and every group_by, read twice (the second read
// splices all it can) after each of: syncs that touch single shards, a
// flush and a compaction of every local shard, a failover, a killed shard
// (a degraded reply) and its return, and syncs to the remote shard, whose
// fold crosses the wire. Splicing a group whose counts alone match,
// splicing by place in the report, or consulting another filter's report
// each fails it, TestReportMemoCounts or the store's
// TestReportMemoSplicesOnlyWhatItHolds.
func TestReportMemoIsReport(t *testing.T) {
	for name, f := range map[string]store.Filter{"all": {}, "country": {Country: "KE"}, "window": {FromTick: 1, ToTick: 2}} {
		t.Run(name, func(t *testing.T) { memoIsReport(t, f) })
	}
}

func memoIsReport(t *testing.T, f store.Filter) {
	m := newMemoFleet(t)
	h := m.Handler()
	check := func(step string) {
		t.Helper()
		for _, gb := range append([]string{""}, store.GroupByModes...) {
			q := store.AggQuery{Filter: f, GroupBy: gb}
			for range 2 {
				want := unremembered(t, m.Coordinator, q)
				if got := served(t, h, q); string(got) != string(want) {
					t.Fatalf("after %s, %+v: served\n%s\nthe report written in full\n%s", step, q, got, want)
				}
			}
		}
	}
	for _, p := range m.probes {
		m.round(t, p)
		m.round(t, p)
	}
	check("every probe's first results")
	for i, p := range m.probes[:6] {
		m.round(t, p)
		check(fmt.Sprintf("sync %d", i))
		m.Tick(1)
	}
	for id, ls := range m.Shards {
		if err := ls.Controller().ResultStore().Flush(); err != nil {
			t.Fatalf("flush %s: %v", id, err)
		}
	}
	check("a flush")
	for id, ls := range m.Shards {
		if err := ls.Controller().CompactStore(); err != nil {
			t.Fatalf("compact %s: %v", id, err)
		}
	}
	check("a compaction")
	if err := m.FailoverShard("shard-1"); err != nil {
		t.Fatal(err)
	}
	check("a failover")
	killed := m.Shards["shard-2"].Kill()
	if _, meta, err := m.Fold(store.AggQuery{}); err != nil || !meta.Degraded {
		t.Fatalf("with shard-2 killed: degraded %v, err %v", meta.Degraded, err)
	}
	check("a kill")
	m.Shards["shard-2"].Revive(killed)
	check("a revival")
	synced := 0
	for _, p := range m.probes {
		if m.book.ring.owner(p.ID) == "shard-3" && synced < 3 {
			m.round(t, p)
			check("a sync to the remote shard")
			synced++
		}
	}
	if synced == 0 {
		t.Fatal("the remote shard owns no probe")
	}
	if ctr := m.Counters(); ctr["fed_report_groups_reused"] == 0 || ctr["fed_report_groups_finished"] == 0 {
		t.Fatalf("counters %v: want groups both spliced and finished", ctr)
	}
}

// TestReportMemoCounts: the coordinator counts each report's spliced and
// finished groups. Over fed_4shard's layout, the first full aggregate
// finishes all 512 groups and the next splices them all; after one
// 4-record sync to one shard the next finishes exactly the groups the
// sync reached; another filter's aggregate splices none of them, and its
// second read all.
func TestReportMemoCounts(t *testing.T) {
	c := benchCoordinator(t)
	h := c.Handler()
	shard := c.shards["shard-0"].slot.(*LocalShard).Controller().ResultStore()
	step := func(name string, f store.Filter, reused, finished int64) {
		t.Helper()
		before := c.Counters()
		served(t, h, store.AggQuery{Filter: f, GroupBy: store.GroupCountryASN})
		after := c.Counters()
		r := after["fed_report_groups_reused"] - before["fed_report_groups_reused"]
		n := after["fed_report_groups_finished"] - before["fed_report_groups_finished"]
		if r != reused || n != finished {
			t.Fatalf("%s: %d groups spliced and %d finished, want %d and %d", name, r, n, reused, finished)
		}
	}
	step("first", store.Filter{}, 0, 512)
	step("second", store.Filter{}, 512, 0)
	if err := shard.Append(touch(0)...); err != nil {
		t.Fatal(err)
	}
	step("after a sync", store.Filter{}, 512-4, 4)
	step("another filter", store.Filter{Country: "NG"}, 0, 64)
	step("its second read", store.Filter{Country: "NG"}, 64, 0)
	raw := httptest.NewRecorder()
	h.ServeHTTP(raw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if body := raw.Body.String(); !strings.Contains(body, `name="fed_report_groups_reused"`) || !strings.Contains(body, `name="fed_report_groups_finished"`) {
		t.Fatalf("/metrics lacks the report counters:\n%s", body)
	}
}

// TestReportMemoUnderConcurrency runs aggregates of three group_bys, one
// goroutine of four filtered, beside appends to every shard. Each answer
// must be a 200 that decodes, its groups' counts summing to what it
// matched; once the appends stop, what is served is the report written
// in full. Run it under -race.
func TestReportMemoUnderConcurrency(t *testing.T) {
	c := benchCoordinator(t)
	h := c.Handler()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 40; i++ {
			id := fmt.Sprintf("shard-%d", i%4)
			if err := c.shards[id].slot.(*LocalShard).Controller().ResultStore().Append(touch(i)...); err != nil {
				t.Error(err)
			}
		}
		close(stop)
	}()
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i >= 5 {
						return
					}
				default:
				}
				q := store.AggQuery{GroupBy: []string{store.GroupCountryASN, store.GroupCountry, store.GroupNone}[(g+i)%3]}
				if g == 3 {
					q.Filter.Country = "KE"
				}
				var rep store.AggReport
				w := aggregate(h, q)
				if err := json.Unmarshal(w.Body.Bytes(), &rep); w.Code != http.StatusOK || err != nil {
					t.Errorf("%+v: status %d, %v", q, w.Code, err)
					return
				}
				sum := int64(0)
				for _, gr := range rep.Groups {
					sum += gr.Count
				}
				if sum != rep.Matched {
					t.Errorf("%+v: groups count %d of %d matched", q, sum, rep.Matched)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, gb := range []string{store.GroupCountryASN, store.GroupCountry, store.GroupNone} {
		q := store.AggQuery{GroupBy: gb}
		if got, want := served(t, h, q), unremembered(t, c, q); string(got) != string(want) {
			t.Fatalf("%+v after the appends: served\n%s\nwant\n%s", q, got, want)
		}
	}
}
