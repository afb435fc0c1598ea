package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// The federation property: for any workload, a federated query must
// answer exactly what a single store holding the union of every
// responsive shard's records would answer. The oracle below IS that
// single store — shard scans merged in (seq, shard) order, deduplicated
// by key, replayed into one store.NewMemory — and the federated
// ScanPage walk and Aggregate are compared against it, including the
// degraded case where one shard is permanently dead. ScanPage is the
// served path itself (op=scan's ScanItems, decoded), so the oracle holds
// the pages a client is sent.

func randomWorkload(t *testing.T, rng *rand.Rand, c *Coordinator) []core.ProbeInfo {
	t.Helper()
	countries := []string{"KE", "NG", "ZA", "SN", "EG"}
	nProbes := 6 + rng.Intn(8)
	ps := make([]core.ProbeInfo, nProbes)
	for i := range ps {
		ps[i] = core.ProbeInfo{
			ID:       fmt.Sprintf("p%02d", i),
			ASN:      topology.ASN(64500 + rng.Intn(5)),
			Country:  countries[rng.Intn(len(countries))],
			HasWired: rng.Intn(2) == 0,
		}
		if err := c.Register(ctx, ps[i]); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	nExps := 1 + rng.Intn(3)
	for e := 0; e < nExps; e++ {
		var as []probes.Assignment
		for _, p := range ps {
			for j := 0; j < 1+rng.Intn(3); j++ {
				kind := probes.TaskPing
				if rng.Intn(3) == 0 {
					kind = probes.TaskDNS
				}
				as = append(as, probes.Assignment{
					ProbeID: p.ID,
					Task:    probes.Task{Kind: kind, Target: "198.51.100.7", Domain: "example.org"},
				})
			}
		}
		if _, err := submit(c, fmt.Sprintf("prop-req-%d", e), "prop", as); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for _, p := range ps {
		for {
			tasks, err := leaseTasks(c, p.ID, 1+rng.Intn(6))
			if err != nil {
				t.Fatalf("LeaseTasks: %v", err)
			}
			if len(tasks) == 0 {
				break
			}
			rs := make([]probes.Result, 0, len(tasks))
			for _, task := range tasks {
				rs = append(rs, probes.Result{
					TaskID:     task.ID,
					Experiment: task.Experiment,
					ProbeID:    p.ID,
					Kind:       task.Kind,
					OK:         rng.Intn(10) != 0,
					RTTms:      10 + rng.Float64()*200,
				})
			}
			if _, err := submitResults(c, p.ID, rs); err != nil {
				t.Fatalf("SubmitResults: %v", err)
			}
		}
	}
	return ps
}

// taggedRecord pairs a record with the shard it came from, for the
// oracle's sort-based merge: independent of the coordinator's k-way one.
type taggedRecord struct {
	rec   store.Record
	shard string
}

// buildOracle replays the union of the given shards' records, in the
// same (seq, shard) merge order the coordinator uses, into one store.
func buildOracle(t *testing.T, shards map[string]*LocalShard) *store.Store {
	t.Helper()
	var merged []taggedRecord
	for id, ls := range shards {
		recs, _, err := ls.ScanPage(store.Filter{}, 0, "")
		if err != nil {
			t.Fatalf("oracle scan of %s: %v", id, err)
		}
		for _, r := range recs {
			merged = append(merged, taggedRecord{rec: r, shard: id})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].rec.Seq != merged[j].rec.Seq {
			return merged[i].rec.Seq < merged[j].rec.Seq
		}
		return merged[i].shard < merged[j].shard
	})
	oracle := store.NewMemory(store.Options{})
	seen := map[string]bool{}
	for _, tr := range merged {
		if seen[tr.rec.Key()] {
			continue
		}
		seen[tr.rec.Key()] = true
		r := tr.rec
		r.Seq = 0 // the oracle assigns its own
		if err := oracle.Append(r); err != nil {
			t.Fatalf("oracle append: %v", err)
		}
	}
	return oracle
}

// keysOnTwoShards is the invariant a federated aggregate rests on
// (DESIGN.md "Scatter-gather queries"), checked directly: a full scan of
// every live shard, returning each (experiment, task) key that two of
// them hold. Aggregate merges per-shard folds and deduplicates nothing
// across shards, so a key here is a result counted twice.
func keysOnTwoShards(t *testing.T, shards map[string]*LocalShard) []string {
	t.Helper()
	home := map[string]string{}
	var twice []string
	for id, ls := range shards {
		recs, _, err := ls.ScanPage(store.Filter{}, 0, "")
		if errors.Is(err, ErrShardDown) {
			continue
		}
		if err != nil {
			t.Fatalf("scan of %s: %v", id, err)
		}
		for _, r := range recs {
			if other, ok := home[r.Key()]; ok && other != id {
				twice = append(twice, r.Key())
			}
			home[r.Key()] = id
		}
	}
	sort.Strings(twice)
	return twice
}

// TestAggregateRestsOnOneShardPerKey plants what the routing rules out —
// one (experiment, task) result recorded on two shards — and pins what
// then happens: the invariant check names the key, a federated scan
// still collapses it (its in-page dedup), and a federated aggregate
// counts it twice. That is why the invariant is asserted wherever shards
// are killed, restarted and failed over, and not assumed.
func TestAggregateRestsOnOneShardPerKey(t *testing.T) {
	c, shardList := newHarness(t, 2, "", testConfig())
	shards := map[string]*LocalShard{"shard-0": shardList[0], "shard-1": shardList[1]}
	pumpResults(t, c, testProbes(6), 2)
	if twice := keysOnTwoShards(t, shards); len(twice) != 0 {
		t.Fatalf("routing put %v on two shards", twice)
	}
	before, _, err := c.Aggregate(store.AggQuery{})
	if err != nil {
		t.Fatal(err)
	}

	// Copy one of shard-0's records into shard-1's store, behind the
	// coordinator's back.
	recs, _, err := shardList[0].ScanPage(store.Filter{}, 1, "")
	if err != nil || len(recs) != 1 {
		t.Fatalf("shard-0 scan: %d records, err %v", len(recs), err)
	}
	dup := recs[0]
	dup.Seq = 0
	if err := shardList[1].Controller().ResultStore().Append(dup); err != nil {
		t.Fatal(err)
	}

	if twice := keysOnTwoShards(t, shards); len(twice) != 1 || twice[0] != dup.Key() {
		t.Fatalf("the invariant check reports %v, want [%s]", twice, dup.Key())
	}
	scanned, _, _, err := c.ScanPage(store.Filter{}, 0, "")
	if err != nil || int64(len(scanned)) != before.Matched {
		t.Fatalf("federated scan returns %d records (err %v), want the %d distinct ones", len(scanned), err, before.Matched)
	}
	after, _, err := c.Aggregate(store.AggQuery{})
	if err != nil || after.Matched != before.Matched+1 {
		t.Fatalf("federated aggregate matched %d (err %v): with a key on two shards it counts %d + 1", after.Matched, err, before.Matched)
	}
}

// itemRecords decodes a scan page's items, each a record's bytes as the
// server sent them, into records.
func itemRecords(t *testing.T, items []store.Item) []store.Record {
	t.Helper()
	recs := make([]store.Record, len(items))
	for i, it := range items {
		if err := json.Unmarshal(it.JSON, &recs[i]); err != nil {
			t.Fatalf("scan item %d: %v", i, err)
		}
	}
	return recs
}

func stripSeq(recs []store.Record) []store.Record {
	out := make([]store.Record, len(recs))
	for i, r := range recs {
		r.Seq = 0
		out[i] = r
	}
	return out
}

func randomFilters(rng *rand.Rand) []store.Filter {
	return []store.Filter{
		{},
		{Experiment: fmt.Sprintf("fexp-%04d", 1+rng.Intn(3))},
		{Country: []string{"KE", "NG", "ZA", "SN", "EG"}[rng.Intn(5)]},
		{ASN: topology.ASN(64500 + rng.Intn(5))},
		{Kind: string(probes.TaskPing)},
	}
}

func checkAgainstOracle(t *testing.T, rng *rand.Rand, c *Coordinator, oracle *store.Store, wantDegraded bool) {
	t.Helper()
	groupBys := []string{store.GroupNone, store.GroupCountry, store.GroupASN, store.GroupCountryASN}
	for fi, f := range randomFilters(rng) {
		// Scan: walk federated pages with a random page size; the
		// concatenation must equal the oracle's full scan, minus seq.
		limit := 1 + rng.Intn(20)
		var fed []store.Record
		cursor := ""
		for {
			recs, next, meta, err := c.ScanPage(f, limit, cursor)
			if err != nil {
				t.Fatalf("filter %d: fed scan: %v", fi, err)
			}
			if meta.Degraded != wantDegraded {
				t.Fatalf("filter %d: degraded=%v, want %v", fi, meta.Degraded, wantDegraded)
			}
			fed = append(fed, recs...)
			// A dead shard's position is carried forward verbatim so a
			// later page can retry it; a client that doesn't want to wait
			// stops when a page makes no progress.
			if next == "" || next == cursor {
				break
			}
			cursor = next
		}
		want, _, err := oracle.ScanPage(f, 0, "")
		if err != nil {
			t.Fatalf("filter %d: oracle scan: %v", fi, err)
		}
		if !reflect.DeepEqual(stripSeq(fed), stripSeq(want)) {
			t.Fatalf("filter %d (%+v): federated scan diverges from oracle:\n fed  %d records\n want %d records",
				fi, f, len(fed), len(want))
		}
		// Aggregate: the federated fold must equal the oracle's.
		gb := groupBys[rng.Intn(len(groupBys))]
		fedRep, meta, err := c.Aggregate(store.AggQuery{Filter: f, GroupBy: gb})
		if err != nil {
			t.Fatalf("filter %d: fed aggregate: %v", fi, err)
		}
		if meta.Degraded != wantDegraded {
			t.Fatalf("filter %d: aggregate degraded=%v, want %v", fi, meta.Degraded, wantDegraded)
		}
		wantRep, err := oracle.Aggregate(store.AggQuery{Filter: f, GroupBy: gb})
		if err != nil {
			t.Fatalf("filter %d: oracle aggregate: %v", fi, err)
		}
		if !reflect.DeepEqual(fedRep, wantRep) {
			t.Fatalf("filter %d (%+v, group %s): federated aggregate diverges:\n fed  %+v\n want %+v",
				fi, f, gb, fedRep, wantRep)
		}
	}
}

func TestFederatedQueryMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, shardList := newHarness(t, 3, "", testConfig())
			randomWorkload(t, rng, c)

			all := map[string]*LocalShard{}
			for i, ls := range shardList {
				all[fmt.Sprintf("shard-%d", i)] = ls
			}
			if twice := keysOnTwoShards(t, all); len(twice) != 0 {
				t.Fatalf("keys on two shards: %v", twice)
			}
			checkAgainstOracle(t, rng, c, buildOracle(t, all), false)

			// One shard dies permanently: every query degrades, and the
			// answers must equal the oracle over the survivors only.
			deadIdx := rng.Intn(len(shardList))
			deadID := fmt.Sprintf("shard-%d", deadIdx)
			survivors := map[string]*LocalShard{}
			for id, ls := range all {
				if id != deadID {
					survivors[id] = ls
				}
			}
			oracle := buildOracle(t, survivors) // before the kill: scans need the shard
			shardList[deadIdx].Kill()
			checkAgainstOracle(t, rng, c, oracle, true)
		})
	}
}

// loadDimensions drives one tier over HTTP with a fixed workload that
// varies every record dimension a filter can select on — country and ASN
// (testProbes), kind, verdict, resolver chain, ECS, and the tick each
// batch lands on. expID "" lets the tier mint the experiment ids; a
// controller is handed the coordinator's, so both store the same records.
func loadDimensions(t *testing.T, cl *core.Client, tick func(int), expIDs []string) []string {
	t.Helper()
	ps := testProbes(8)
	for _, p := range ps {
		if err := cl.Register(p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	chains := []string{"stub>cache>cloud>authority", "stub>cache>forwarder>authority"}
	verdicts := []string{"dns_blocked", "ok", "throttled"}
	var minted []string
	for e := 0; e < 2; e++ {
		var as []probes.Assignment
		for i, p := range ps {
			for j, kind := range []probes.TaskKind{probes.TaskPing, probes.TaskWebsteps, probes.TaskDNSLoad} {
				as = append(as, probes.Assignment{ProbeID: p.ID, Task: probes.Task{
					ID: fmt.Sprintf("e%d-p%d-t%d", e, i, j), Kind: kind, Domain: "example.org",
				}})
			}
		}
		var exp *core.Experiment
		var err error
		if expIDs == nil {
			exp, err = cl.Submit(testOwner, "dimensions", as)
		} else {
			exp, err = cl.SubmitRequest(core.SubmitRequest{RequestID: fmt.Sprintf("dim-req-%d", e), ID: expIDs[e], Owner: testOwner, Description: "dimensions", Assignments: as})
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		minted = append(minted, exp.ID)
		for i, p := range ps {
			tasks, err := clLease(cl, p.ID, 0)
			if err != nil || len(tasks) != 3 {
				t.Fatalf("LeaseTasks(%s): %d tasks, err %v", p.ID, len(tasks), err)
			}
			rs := make([]probes.Result, 0, len(tasks))
			for j, task := range tasks {
				r := probes.Result{TaskID: task.ID, Experiment: task.Experiment, ProbeID: p.ID,
					Kind: task.Kind, OK: (i+j)%5 != 0, RTTms: float64(10 + 7*i + j)}
				switch task.Kind {
				case probes.TaskWebsteps:
					r.Verdict, r.ResolverKind = verdicts[(i+e)%len(verdicts)], "cloud"
				case probes.TaskDNSLoad:
					r.ResolverChain, r.ECS = chains[i%len(chains)], (i+e)%2 == 0
				}
				rs = append(rs, r)
			}
			if err := clUpload(cl, p.ID, rs); err != nil {
				t.Fatalf("SubmitResults: %v", err)
			}
			if i == len(ps)/2 {
				tick(1) // the second half of each experiment lands a tick later
			}
		}
	}
	return minted
}

// scanSet walks every page of a filtered scan through the client and
// returns the records keyed for set comparison: ordered by (experiment,
// task), sequence numbers stripped (a coordinator merges shards'
// sequences; a controller has one).
func scanSet(t *testing.T, cl *core.Client, f store.Filter) []store.Record {
	t.Helper()
	var out []store.Record
	cursor := ""
	for {
		items, next, _, err := cl.QueryScan(f, 5, cursor)
		if err != nil {
			t.Fatalf("QueryScan(%+v): %v", f, err)
		}
		out = append(out, stripSeq(itemRecords(t, items))...)
		if next == "" {
			break
		}
		cursor = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// TestFederatedFiltersMatchController is the oracle property through the
// front door: a single controller and a 3-shard coordinator holding the
// same records must answer every filter parameter of the store's table
// identically over HTTP, and reject the same malformed values. It walks
// store.FilterParams, so a parameter added to that table is checked on
// both tiers (and through the client's encoder) without an edit here
// beyond a sample value.
func TestFederatedFiltersMatchController(t *testing.T) {
	fedCl, coord, _ := newHTTPHarness(t, 3)
	expIDs := loadDimensions(t, fedCl, coord.Tick, nil)

	ctrl := core.NewController(testOwner)
	srv := httptest.NewServer(ctrl.Handler())
	t.Cleanup(srv.Close)
	ctrlCl := core.NewClientSeeded(srv.URL, 7)
	loadDimensions(t, ctrlCl, ctrl.Tick, expIDs)

	all := scanSet(t, ctrlCl, store.Filter{})
	if len(all) != 48 || !reflect.DeepEqual(all, scanSet(t, fedCl, store.Filter{})) {
		t.Fatalf("the tiers do not hold the same %d records", len(all))
	}
	samples := map[string]string{
		"experiment": expIDs[1], "country": "NG", "asn": "64502", "kind": "dnsload",
		"verdict": "dns_blocked", "resolver_chain": "stub>cache>cloud>authority", "ecs": "true",
		"from_tick": "2", "to_tick": "1",
	}
	groupBys := []string{store.GroupNone, store.GroupCountry, store.GroupVerdict, store.GroupResolverChain, store.GroupECS}
	for i, p := range store.FilterParams() {
		value, ok := samples[p.Name]
		if !ok {
			t.Fatalf("no sample value for filter parameter %q: add one", p.Name)
		}
		f, err := store.ParseFilter(url.Values{p.Name: {value}})
		if err != nil {
			t.Fatalf("ParseFilter(%s=%s): %v", p.Name, value, err)
		}
		want := scanSet(t, ctrlCl, f)
		if len(want) == 0 || len(want) == len(all) {
			t.Fatalf("%s=%s selects %d of %d records on the controller: the sample does not exercise the filter", p.Name, value, len(want), len(all))
		}
		if got := scanSet(t, fedCl, f); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s=%s: coordinator scan returns %d records, controller %d", p.Name, value, len(got), len(want))
		}
		gb := groupBys[i%len(groupBys)]
		wantRep, _, err := ctrlCl.QueryAggregate(f, gb)
		if err != nil {
			t.Fatalf("%s=%s: controller aggregate: %v", p.Name, value, err)
		}
		gotRep, _, err := fedCl.QueryAggregate(f, gb)
		if err != nil || !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("%s=%s group %s: coordinator aggregate diverges (err %v):\n fed  %+v\n ctrl %+v", p.Name, value, gb, err, gotRep, wantRep)
		}
	}
	for _, bad := range []string{"ecs=maybe", "asn=xyz", "from_tick=x"} {
		for _, cl := range []*core.Client{ctrlCl, fedCl} {
			for _, op := range []string{"scan", "aggregate"} {
				resp, err := http.Get(cl.Base + "/api/v1/query?op=" + op + "&" + bad)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s op=%s on %s: status %d, want 400", bad, op, cl.Base, resp.StatusCode)
				}
			}
		}
	}
}
