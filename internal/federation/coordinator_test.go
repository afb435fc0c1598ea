package federation

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

const testOwner = "lab"

var ctx = context.Background()

// submit, leaseTasks and submitResults are the coordinator calls the
// tests make by hand: a submission by testOwner, and the two partial sync
// rounds.

func submit(c *Coordinator, requestID, description string, as []probes.Assignment) (*core.Experiment, error) {
	return c.Submit(ctx, core.SubmitRequest{RequestID: requestID, Owner: testOwner, Description: description, Assignments: as})
}

func leaseTasks(c *Coordinator, probeID string, max int) ([]probes.Task, error) {
	resp, err := c.Sync(ctx, core.SyncRequest{ProbeID: probeID, Max: max}, 0)
	return resp.Tasks, err
}

func submitResults(c *Coordinator, probeID string, rs []probes.Result) (int, error) {
	resp, err := c.Sync(ctx, core.SyncRequest{ProbeID: probeID, Results: rs, Max: -1}, 0)
	return resp.Accepted, err
}

func testConfig() Config {
	return Config{
		SuspectAfter:  2,
		DeadAfter:     4,
		QueryDeadline: 5 * time.Second,
		HedgeAfter:    20 * time.Millisecond,
	}
}

// newHarness builds a coordinator over n in-memory controller shards.
func newHarness(t *testing.T, n int, dir string, cfg Config) (*Coordinator, []*LocalShard) {
	t.Helper()
	c, err := New(dir, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	shards := make([]*LocalShard, n)
	for i := 0; i < n; i++ {
		shards[i] = NewLocalShard(core.NewController(testOwner))
		if err := c.AddShard(fmt.Sprintf("shard-%d", i), shards[i]); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
	}
	return c, shards
}

func testProbes(n int) []core.ProbeInfo {
	out := make([]core.ProbeInfo, n)
	for i := range out {
		out[i] = core.ProbeInfo{
			ID:       fmt.Sprintf("probe-%02d", i),
			ASN:      topology.ASN(64500 + i%4),
			Country:  []string{"KE", "NG", "ZA", "SN"}[i%4],
			HasWired: i%2 == 0,
		}
	}
	return out
}

func testAssignments(ps []core.ProbeInfo, perProbe int) []probes.Assignment {
	var as []probes.Assignment
	for _, p := range ps {
		for j := 0; j < perProbe; j++ {
			as = append(as, probes.Assignment{
				ProbeID: p.ID,
				Task:    probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"},
			})
		}
	}
	return as
}

// pumpResults registers the probes, submits an experiment, and drives
// every probe through lease → result through the coordinator. Returns
// the federated experiment and how many results were accepted.
func pumpResults(t *testing.T, c *Coordinator, ps []core.ProbeInfo, perProbe int) (*core.Experiment, int) {
	t.Helper()
	for _, p := range ps {
		if err := c.Register(ctx, p); err != nil {
			t.Fatalf("Register(%s): %v", p.ID, err)
		}
	}
	exp, err := submit(c, "req-1", "fed workload", testAssignments(ps, perProbe))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if exp.Status != core.StatusApproved {
		t.Fatalf("trusted owner not auto-approved: %s", exp.Status)
	}
	accepted := 0
	for _, p := range ps {
		for {
			tasks, err := leaseTasks(c, p.ID, 8)
			if err != nil {
				t.Fatalf("LeaseTasks(%s): %v", p.ID, err)
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
					OK:         true,
					RTTms:      float64(10 + len(task.ID)%7),
				})
			}
			n, err := submitResults(c, p.ID, rs)
			if err != nil {
				t.Fatalf("SubmitResults(%s): %v", p.ID, err)
			}
			accepted += n
		}
	}
	return exp, accepted
}

func TestRingDeterministicAndCovering(t *testing.T) {
	ids := []string{"a", "b", "c"}
	r1 := newRing(ids)
	r2 := newRing(ids)
	hits := map[string]int{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("probe-%03d", i)
		o1, o2 := r1.owner(k), r2.owner(k)
		if o1 != o2 {
			t.Fatalf("ring not deterministic for %s: %s vs %s", k, o1, o2)
		}
		hits[o1]++
	}
	for _, id := range ids {
		if hits[id] == 0 {
			t.Fatalf("shard %s owns no keys: %v", id, hits)
		}
	}
	if got := (&ring{}).owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
}

func TestRoutingSpreadsProbesAndMergesResults(t *testing.T) {
	c, shards := newHarness(t, 3, "", testConfig())
	ps := testProbes(12)
	exp, accepted := pumpResults(t, c, ps, 2)
	if want := len(ps) * 2; accepted != want {
		t.Fatalf("accepted %d results, want %d", accepted, want)
	}
	// Each shard holds only its partition; together they hold everything
	// exactly once.
	perShard := 0
	for i, ls := range shards {
		recs, _, err := ls.ScanPage(store.Filter{Experiment: exp.ID}, 0, "")
		if err != nil {
			t.Fatalf("shard %d scan: %v", i, err)
		}
		perShard += len(recs)
	}
	if perShard != accepted {
		t.Fatalf("shards hold %d records, want %d", perShard, accepted)
	}
	recs, next, meta, err := c.ScanPage(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil {
		t.Fatalf("fed scan: %v", err)
	}
	if meta.Degraded || next != "" {
		t.Fatalf("healthy full scan: degraded=%v next=%q", meta.Degraded, next)
	}
	if len(recs) != accepted {
		t.Fatalf("fed scan returned %d records, want %d", len(recs), accepted)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.Key()] {
			t.Fatalf("duplicate key %s in federated scan", r.Key())
		}
		seen[r.Key()] = true
	}
	// Federated aggregate == the fold over the federated scan.
	rep, meta, err := c.Aggregate(store.AggQuery{GroupBy: store.GroupCountry})
	if err != nil || meta.Degraded {
		t.Fatalf("fed aggregate: err=%v degraded=%v", err, meta.Degraded)
	}
	fold, err := store.NewFolder(store.GroupCountry)
	if err != nil {
		t.Fatalf("oracle fold: %v", err)
	}
	for i := range recs {
		fold.Add(&recs[i])
	}
	want := fold.Report()
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("fed aggregate diverges from fold over fed scan:\n got %+v\nwant %+v", rep, want)
	}
}

func TestSubmitIdempotentAcrossRetries(t *testing.T) {
	c, _ := newHarness(t, 3, "", testConfig())
	ps := testProbes(6)
	for _, p := range ps {
		if err := c.Register(ctx, p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	as := testAssignments(ps, 1)
	exp1, err := submit(c, "req-idem", "d", as)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	exp2, err := submit(c, "req-idem", "d", as)
	if err != nil {
		t.Fatalf("Submit retry: %v", err)
	}
	if exp1.ID != exp2.ID {
		t.Fatalf("retry minted a second experiment: %s vs %s", exp1.ID, exp2.ID)
	}
	if len(exp2.Assignments) != len(as) {
		t.Fatalf("retry has %d assignments, want %d", len(exp2.Assignments), len(as))
	}
	// A different request id is a different experiment.
	exp3, err := submit(c, "req-other", "d", as)
	if err != nil {
		t.Fatalf("Submit other: %v", err)
	}
	if exp3.ID == exp1.ID {
		t.Fatalf("distinct request ids shared experiment id %s", exp1.ID)
	}
}

// TestSubmitRefusesTaskIDOnTwoShards: a caller may pin task ids, but not
// one id for probes of two shards — both would record a result under the
// one (experiment, task) key. Nothing is journaled or pushed; the same id
// twice within a shard stays the controller's business (first result wins).
func TestSubmitRefusesTaskIDOnTwoShards(t *testing.T) {
	c, _ := newHarness(t, 2, "", testConfig())
	ps := testProbes(8)
	for _, p := range ps {
		if err := c.Register(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	byShard := map[string][]string{}
	for _, p := range ps {
		byShard[c.book.ring.owner(p.ID)] = append(byShard[c.book.ring.owner(p.ID)], p.ID)
	}
	if len(byShard["shard-0"]) < 2 || len(byShard["shard-1"]) < 1 {
		t.Fatalf("the ring split 8 probes %v: the test needs two on shard-0 and one on shard-1", byShard)
	}
	pinned := func(probeIDs ...string) []probes.Assignment {
		var as []probes.Assignment
		for _, id := range probeIDs {
			as = append(as, probes.Assignment{ProbeID: id, Task: probes.Task{ID: "pinned", Kind: probes.TaskPing}})
		}
		return as
	}
	if _, err := submit(c, "req-two", "d", pinned(byShard["shard-0"][0], byShard["shard-1"][0])); err == nil {
		t.Fatal("one task id for probes of two shards was accepted")
	}
	if n := c.Counters()["fed_submits"]; n != 0 {
		t.Fatalf("the refused submission was journaled (fed_submits = %d)", n)
	}
	exp, err := submit(c, "req-one", "d", pinned(byShard["shard-0"][0], byShard["shard-0"][1]))
	if err != nil || exp.ID != "fexp-0001" {
		t.Fatalf("one task id twice within a shard: exp %+v, err %v", exp, err)
	}
}

func TestSubmitRetryRepairsPartialPush(t *testing.T) {
	c, shards := newHarness(t, 2, "", testConfig())
	ps := testProbes(8)
	for _, p := range ps {
		if err := c.Register(ctx, p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	as := testAssignments(ps, 1)
	// Kill one shard: the push reaches the surviving shard only.
	killed := shards[1].Kill()
	if _, err := submit(c, "req-partial", "d", as); err == nil {
		t.Fatal("Submit with a dead shard should fail")
	}
	shards[1].Revive(killed)
	exp, err := submit(c, "req-partial", "d", as)
	if err != nil {
		t.Fatalf("Submit retry after revive: %v", err)
	}
	if len(exp.Assignments) != len(as) {
		t.Fatalf("repaired experiment has %d assignments, want %d", len(exp.Assignments), len(as))
	}
	// The surviving shard's partition was not duplicated by the retry.
	got, err := c.Experiment(exp.ID)
	if err != nil {
		t.Fatalf("Experiment: %v", err)
	}
	if len(got.Assignments) != len(as) {
		t.Fatalf("gathered experiment has %d assignments, want %d", len(got.Assignments), len(as))
	}
}

func TestCoordinatorJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	c1, shards := newHarness(t, 3, dir, cfg)
	ps := testProbes(9)
	exp, accepted := pumpResults(t, c1, ps, 1)
	routes1 := map[string]string{}
	for _, p := range ps {
		c1.mu.Lock()
		routes1[p.ID] = c1.book.ring.owner(p.ID)
		c1.mu.Unlock()
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2, err := New(dir, cfg)
	if err != nil {
		t.Fatalf("New (recover): %v", err)
	}
	defer c2.Close()
	// Shard map replayed: same ids, backends detached (dead).
	sts := c2.ShardStatuses()
	if len(sts) != 3 {
		t.Fatalf("recovered %d shards, want 3", len(sts))
	}
	for _, st := range sts {
		if st.Health != core.ProbeDead {
			t.Fatalf("detached shard %s health %s, want dead", st.ID, st.Health)
		}
	}
	// Re-attach and verify routing and the submission book survived.
	for i, ls := range shards {
		if err := c2.AddShard(fmt.Sprintf("shard-%d", i), ls); err != nil {
			t.Fatalf("re-AddShard: %v", err)
		}
	}
	for _, p := range ps {
		c2.mu.Lock()
		got := c2.book.ring.owner(p.ID)
		c2.mu.Unlock()
		if got != routes1[p.ID] {
			t.Fatalf("probe %s re-routed from %s to %s across coordinator restart", p.ID, routes1[p.ID], got)
		}
	}
	dup, err := submit(c2, "req-1", "fed workload", testAssignments(ps, 1))
	if err != nil {
		t.Fatalf("replayed Submit: %v", err)
	}
	if dup.ID != exp.ID {
		t.Fatalf("recovered coordinator re-minted %s for request req-1 (was %s)", dup.ID, exp.ID)
	}
	recs, _, meta, err := c2.ScanPage(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil || meta.Degraded {
		t.Fatalf("post-recovery scan: err=%v degraded=%v", err, meta.Degraded)
	}
	if len(recs) != accepted {
		t.Fatalf("post-recovery scan has %d records, want %d", len(recs), accepted)
	}
}

func TestShardHealthStateMachine(t *testing.T) {
	cfg := testConfig()
	c, shards := newHarness(t, 2, "", cfg)
	c.Tick(1)
	if sts := c.ShardStatuses(); sts[0].Health != core.ProbeAlive || sts[1].Health != core.ProbeAlive {
		t.Fatalf("expected both alive after tick: %+v", sts)
	}
	killed := shards[1].Kill()
	c.Tick(int(cfg.SuspectAfter))
	if got := c.ShardStatuses()[1].Health; got != core.ProbeSuspect {
		t.Fatalf("after %d silent ticks health = %s, want suspect", cfg.SuspectAfter, got)
	}
	c.Tick(int(cfg.DeadAfter - cfg.SuspectAfter))
	if got := c.ShardStatuses()[1].Health; got != core.ProbeDead {
		t.Fatalf("after %d silent ticks health = %s, want dead", cfg.DeadAfter, got)
	}
	if got := c.ShardStatuses()[0].Health; got != core.ProbeAlive {
		t.Fatalf("healthy shard marked %s", got)
	}
	shards[1].Revive(killed)
	c.Tick(1)
	if got := c.ShardStatuses()[1].Health; got != core.ProbeAlive {
		t.Fatalf("revived shard health = %s, want alive", got)
	}
	if c.Counters()["fed_shard_recovered"] == 0 {
		t.Fatal("fed_shard_recovered not counted")
	}
}

func TestDeadShardFailoverPreservesState(t *testing.T) {
	cfg := testConfig()
	cfg.AutoFailover = true
	base := t.TempDir()
	// Durable shards so state can be shipped.
	dcfg := core.DurabilityConfig{Trusted: []string{testOwner}, StoreFlushEvery: 4}
	l, err := BootLocal(base, 2, dcfg, cfg)
	if err != nil {
		t.Fatalf("BootLocal: %v", err)
	}
	defer l.Close()
	c := l.Coordinator
	var appended int64 // journal records the killed shard had acknowledged
	failover := c.Failover
	c.Failover = func(id string, epoch int, commit func() error) error {
		err := failover(id, epoch, commit)
		if err != nil {
			return err
		}
		// The dead shard's journal was shipped as its live log left it,
		// allocated zeros behind the frames included: that is every record
		// the shard acknowledged and no torn tail.
		raw, err := os.ReadFile(filepath.Join(ShardDir(base, id, epoch), "journal.log"))
		if frames := framelog.Span(framelog.Frames(raw)); err != nil || frames == 0 || frames >= int64(len(raw)) {
			t.Errorf("shipped journal: %d bytes of frames in a %d-byte file (%v), want frames and an allocated tail", frames, len(raw), err)
		}
		d := l.Shards[id].Controller().DurabilityCounters()
		if d["recovery_truncated_tail"] != 0 || d["recovery_replayed"] != appended {
			t.Errorf("recovered the shipped directory with %v, want no torn tail and all %d records replayed", d, appended)
		}
		return nil
	}

	ps := testProbes(10)
	exp, accepted := pumpResults(t, c, ps, 2)

	// Crash shard-1 without closing it (a real crash leaves no goodbye);
	// its journal is already durable because appends sync before ack.
	appended = l.Shards["shard-1"].Kill().DurabilityCounters()["journal_records_appended"]
	c.Tick(int(cfg.DeadAfter))
	if c.Counters()["fed_failovers"] != 1 {
		t.Fatalf("fed_failovers = %d, want 1 (counters: %v)", c.Counters()["fed_failovers"], c.Counters())
	}
	if st := c.ShardStatuses()[1]; st.ID != "shard-1" || st.Epoch != 1 {
		t.Fatalf("shard-1 status = %+v, want epoch 1", st)
	}
	if got := c.ShardStatuses()[1].Health; got != core.ProbeAlive {
		t.Fatalf("failed-over shard health = %s, want alive", got)
	}

	// Exactly-once across the handoff: everything acknowledged before
	// the crash is present exactly once in the merged scan.
	recs, _, meta, err := c.ScanPage(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil || meta.Degraded {
		t.Fatalf("post-failover scan: err=%v degraded=%v", err, meta.Degraded)
	}
	if len(recs) != accepted {
		t.Fatalf("post-failover scan has %d records, want %d", len(recs), accepted)
	}
	keys := map[string]int{}
	for _, r := range recs {
		keys[r.Key()]++
	}
	for k, n := range keys {
		if n != 1 {
			t.Fatalf("key %s appears %d times after failover", k, n)
		}
	}
	// The replacement still serves its keyspace: new leases drain empty
	// (everything completed) rather than erroring.
	for _, p := range ps {
		if _, err := leaseTasks(c, p.ID, 4); err != nil {
			t.Fatalf("post-failover lease for %s: %v", p.ID, err)
		}
	}
}

// durableShards is the shard config of the failover tests: journaled, its
// store sealing every four results.
var durableShards = core.DurabilityConfig{Trusted: []string{testOwner}, StoreFlushEvery: 4}

// scanOnce fails unless a federated scan of expID answers undegraded with
// the want acknowledged results, each once.
func scanOnce(t *testing.T, c *Coordinator, expID string, want int) {
	t.Helper()
	recs, _, meta, err := c.ScanPage(store.Filter{Experiment: expID}, 0, "")
	if err != nil || meta.Degraded {
		t.Fatalf("scan: err=%v degraded=%v", err, meta.Degraded)
	}
	keys := map[string]bool{}
	for _, r := range recs {
		keys[r.Key()] = true
	}
	if len(recs) != want || len(keys) != want {
		t.Fatalf("scan has %d records under %d keys, want the %d acknowledged once each", len(recs), len(keys), want)
	}
}

// TestFailedCommitServesNothing: a failover whose epoch the coordinator
// cannot journal returns the storage fault and leaves the shard down at its
// old epoch, nothing serving from the next epoch's directory, so a boot at
// the same root finds every acknowledged result once.
func TestFailedCommitServesNothing(t *testing.T) {
	root := t.TempDir()
	l, err := BootLocal(root, 2, durableShards, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	exp, accepted := pumpResults(t, l.Coordinator, testProbes(10), 2)
	l.journal.Close()
	var fault *core.StorageFault
	if err := l.FailoverShard("shard-1"); !errors.As(err, &fault) {
		t.Fatalf("FailoverShard with its journal closed: %v, want a StorageFault", err)
	}
	if st := l.ShardStatuses()[1]; st.ID != "shard-1" || st.Epoch != 0 {
		t.Errorf("after a failed commit %+v, want shard-1 at epoch 0", st)
	}
	if l.Shards["shard-1"].Controller() != nil {
		t.Error("shard-1 serves after a failed commit")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := BootLocal(root, 2, durableShards, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	scanOnce(t, again.Coordinator, exp.ID, accepted)
}

// TestLiveFailoverClosesWhatItReplaces: a failover of a live shard closes
// the controller it replaces, whose final snapshot then ships, and which
// refuses a sync that fetched it before the failover; the replacement
// serves everything acknowledged before, once.
func TestLiveFailoverClosesWhatItReplaces(t *testing.T) {
	l, err := BootLocal(t.TempDir(), 2, durableShards, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ps := testProbes(10)
	exp, accepted := pumpResults(t, l.Coordinator, ps, 2)
	old := l.Shards["shard-1"].Controller()
	before := old.DurabilityCounters()["snapshots_written"]
	if err := l.FailoverShard("shard-1"); err != nil {
		t.Fatal(err)
	}
	if got := old.DurabilityCounters()["snapshots_written"]; got != before+1 {
		t.Errorf("the replaced controller wrote %d snapshots during the failover, want Close's one", got-before)
	}
	if st := l.ShardStatuses()[1]; st.Epoch != 1 || st.Health != core.ProbeAlive {
		t.Errorf("after the failover %+v, want shard-1 alive at epoch 1", st)
	}
	i := slices.IndexFunc(ps, func(p core.ProbeInfo) bool { return l.book.ring.owner(p.ID) == "shard-1" })
	if i < 0 {
		t.Fatal("no test probe routes to shard-1")
	}
	var fault *core.StorageFault
	if _, err := old.SyncProbe(ps[i].ID, nil, -1); !errors.As(err, &fault) {
		t.Errorf("a sync on the replaced controller: %v, want a StorageFault", err)
	}
	scanOnce(t, l.Coordinator, exp.ID, accepted)
}

// TestFailoverInFlightDropsASecond: a failover of a shard whose last one is
// still running returns at once, counted, and runs no hook.
func TestFailoverInFlightDropsASecond(t *testing.T) {
	c, _ := newHarness(t, 2, "", testConfig())
	hooks := 0
	c.Failover = func(id string, epoch int, commit func() error) error {
		hooks++
		if err := c.FailoverShard(id); err != nil {
			t.Errorf("a failover while one runs: %v, want nil", err)
		}
		return commit()
	}
	if err := c.FailoverShard("shard-1"); err != nil {
		t.Fatal(err)
	}
	if hooks != 1 || c.Counters()["fed_failover_races"] != 1 || c.ShardStatuses()[1].Epoch != 1 {
		t.Errorf("%d hooks, %d races, %+v; want 1 hook, 1 race, shard-1 at epoch 1", hooks, c.Counters()["fed_failover_races"], c.ShardStatuses()[1])
	}
}

func TestScanDegradesAroundDeadShardAndRecovers(t *testing.T) {
	c, shards := newHarness(t, 3, "", testConfig())
	ps := testProbes(12)
	exp, accepted := pumpResults(t, c, ps, 1)

	killed := shards[2].Kill()
	recs, next, meta, err := c.ScanPage(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil {
		t.Fatalf("degraded scan errored: %v", err)
	}
	if !meta.Degraded || !reflect.DeepEqual(meta.ShardsMissing, []string{"shard-2"}) {
		t.Fatalf("meta = %+v, want degraded with shard-2 missing", meta)
	}
	if len(recs) >= accepted {
		t.Fatalf("degraded scan returned %d records, expected fewer than %d", len(recs), accepted)
	}
	// The degraded response carries a cursor that retries the missing
	// shard: after revival the remainder is reachable through it.
	shards[2].Revive(killed)
	rest, _, meta2, err := c.ScanPage(store.Filter{Experiment: exp.ID}, 0, next)
	if err != nil || meta2.Degraded {
		t.Fatalf("follow-up scan: err=%v meta=%+v", err, meta2)
	}
	got := map[string]bool{}
	for _, r := range append(recs, rest...) {
		if got[r.Key()] {
			t.Fatalf("duplicate key %s across degraded + follow-up pages", r.Key())
		}
		got[r.Key()] = true
	}
	if len(got) != accepted {
		t.Fatalf("degraded + follow-up pages cover %d keys, want %d", len(got), accepted)
	}

	// All shards down is an error, not an empty 200.
	for _, ls := range shards {
		ls.Kill()
	}
	if _, _, _, err := c.ScanPage(store.Filter{}, 0, ""); err == nil {
		t.Fatal("scan with every shard dead should error")
	}
	if _, _, err := c.Aggregate(store.AggQuery{}); err == nil {
		t.Fatal("aggregate with every shard dead should error")
	}
}

func TestScanPagination(t *testing.T) {
	c, _ := newHarness(t, 3, "", testConfig())
	ps := testProbes(9)
	exp, accepted := pumpResults(t, c, ps, 2)
	var walked []store.Record
	cursor := ""
	pages := 0
	for {
		recs, next, meta, err := c.ScanPage(store.Filter{Experiment: exp.ID}, 5, cursor)
		if err != nil || meta.Degraded {
			t.Fatalf("page %d: err=%v degraded=%v", pages, err, meta.Degraded)
		}
		walked = append(walked, recs...)
		pages++
		if next == "" {
			break
		}
		cursor = next
		if pages > accepted {
			t.Fatal("pagination does not terminate")
		}
	}
	full, _, _, err := c.ScanPage(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	if len(walked) != len(full) {
		t.Fatalf("page walk found %d records, full scan %d", len(walked), len(full))
	}
	for i := range walked {
		if walked[i].Key() != full[i].Key() || walked[i].Seq != full[i].Seq {
			t.Fatalf("page walk diverges from full scan at %d: %+v vs %+v", i, walked[i], full[i])
		}
	}
}

// fixedShard is a slot that always holds one backend: how a test mounts
// a fake.
type fixedShard struct{ b core.Backend }

func (s fixedShard) Backend() (core.Backend, error) { return s.b, nil }

// slowFirst holds its first Health call until release is closed; later
// calls answer at once.
type slowFirst struct {
	core.Backend
	calls   atomic.Int32
	release chan struct{}
}

func (s *slowFirst) Health() (core.HealthReport, error) {
	if s.calls.Add(1) == 1 {
		<-s.release
	}
	return s.Backend.Health()
}

// TestScatterCallHedgesSlowAttempt: a call whose first attempt is still
// out when HedgeAfter passes sends one hedge, and the hedge's answer wins.
func TestScatterCallHedgesSlowAttempt(t *testing.T) {
	c, err := New("", testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	slow := &slowFirst{Backend: core.NewController(testOwner).Backend(), release: make(chan struct{})}
	defer close(slow.release)
	if err := c.AddShard("slow", fixedShard{slow}); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	target, err := c.shardFor("any-key")
	if err != nil {
		t.Fatalf("shardFor: %v", err)
	}
	if _, err := scatterCall(c, target, true, func(b core.Backend) (core.HealthReport, error) {
		return b.Health()
	}); err != nil {
		t.Fatalf("hedged call failed: %v", err)
	}
	ctr := c.Counters()
	if ctr["fed_hedges"] != 1 || ctr["fed_shard_errors"] != 0 || slow.calls.Load() != 2 {
		t.Fatalf("fed_hedges %d, fed_shard_errors %d, attempts %d: want 1, 0, 2",
			ctr["fed_hedges"], ctr["fed_shard_errors"], slow.calls.Load())
	}
}

// TestRefusedUploadIsSentOnce: a shard refusing a call has answered it —
// the refusal is returned, not hedged around, so the shard sees the call
// once.
func TestRefusedUploadIsSentOnce(t *testing.T) {
	c, shards := newHarness(t, 1, "", testConfig())
	p := testProbes(1)[0]
	if err := c.Register(ctx, p); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(c, "req-1", "d", testAssignments([]core.ProbeInfo{p}, 1)); err != nil {
		t.Fatal(err)
	}
	bogus := []probes.Result{{TaskID: "no-such-task", Experiment: "fexp-0001", ProbeID: p.ID, Kind: probes.TaskPing, OK: true}}
	if _, err := submitResults(c, p.ID, bogus); err == nil {
		t.Fatal("an upload naming an unknown task was accepted")
	}
	rejected := shards[0].Controller().Stats().Counters["results_rejected"]
	if hedges := c.Counters()["fed_hedges"]; rejected != 1 || hedges != 0 {
		t.Fatalf("results_rejected %d, fed_hedges %d: want 1, 0", rejected, hedges)
	}
}

// TestSubmitRefusesEmptyExperiment: an experiment with no assignments is
// refused as a controller refuses it, before anything is journaled.
func TestSubmitRefusesEmptyExperiment(t *testing.T) {
	c, _ := newHarness(t, 2, t.TempDir(), testConfig())
	if _, err := submit(c, "req-empty", "d", nil); !errors.Is(err, core.ErrNoAssignments) {
		t.Fatalf("empty submission: err %v, want ErrNoAssignments", err)
	}
	if n := c.Counters()["fed_submits"]; n != 0 {
		t.Fatalf("the refused submission was journaled (fed_submits = %d)", n)
	}
}

func TestScatterCallDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.QueryDeadline = 30 * time.Millisecond
	cfg.HedgeAfter = 5 * time.Millisecond
	c, err := New("", cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.AddShard("hang", fixedShard{newHangBackend(t)}); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	target, err := c.shardFor("any-key")
	if err != nil {
		t.Fatalf("shardFor: %v", err)
	}
	_, err = scatterCall(c, target, true, func(b core.Backend) (core.HealthReport, error) {
		return b.Health()
	})
	if !errors.Is(err, ErrShardTimeout) {
		t.Fatalf("err = %v, want ErrShardTimeout", err)
	}
	if c.Counters()["fed_shard_timeouts"] == 0 {
		t.Fatal("fed_shard_timeouts not counted")
	}
}

// hangBackend blocks Health and Stats until the test ends.
type hangBackend struct {
	core.Backend
	done chan struct{}
}

func newHangBackend(t *testing.T) hangBackend {
	h := hangBackend{core.NewController(testOwner).Backend(), make(chan struct{})}
	t.Cleanup(func() { close(h.done) })
	return h
}

func (h hangBackend) Health() (core.HealthReport, error) {
	<-h.done
	return core.HealthReport{}, nil
}

func (h hangBackend) Stats() (any, error) {
	<-h.done
	return nil, nil
}

// TestHealthAsksShardsAtOnce: Health and Stats wait for their shards in
// parallel, so hung shards cost one deadline, not one each — obsd asks
// for Health every tick, and the liveness clock runs on ticks.
func TestHealthAsksShardsAtOnce(t *testing.T) {
	cfg := testConfig()
	cfg.QueryDeadline = 200 * time.Millisecond
	c, err := New("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.AddShard(fmt.Sprintf("hung-%d", i), fixedShard{newHangBackend(t)}); err != nil {
			t.Fatal(err)
		}
	}
	start := obs.StartTimer()
	h, err := c.Health()
	if took := start.Elapsed(); err != nil || h.Status != "degraded" || took >= 2*cfg.QueryDeadline {
		t.Fatalf("Health over three hung shards: %+v, err %v, in %s; want degraded within %s", h, err, took, 2*cfg.QueryDeadline)
	}
	start = obs.StartTimer()
	st, err := c.Stats()
	if took := start.Elapsed(); err != nil || len(st.(FedStats).ShardsDown) != 3 || took >= 2*cfg.QueryDeadline {
		t.Fatalf("Stats over three hung shards: %+v, err %v, in %s; want three down within %s", st, err, took, 2*cfg.QueryDeadline)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	pos := map[string]string{
		"shard-0":              "17",
		"http://host:8600/a=b": "3",
		"shard-2":              "",
	}
	enc := encodeFedCursor(pos)
	got, err := parseFedCursor(enc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]string{"shard-0": "17", "http://host:8600/a=b": "3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %v want %v", got, want)
	}
	if _, err := parseFedCursor("garbage"); err == nil {
		t.Fatal("garbage cursor should not parse")
	}
	if enc := encodeFedCursor(nil); enc != "" {
		t.Fatalf("empty cursor encodes to %q", enc)
	}
}

func TestMergeExperimentStatus(t *testing.T) {
	mk := func(status core.ExperimentStatus) *core.Experiment {
		return &core.Experiment{ID: "fexp-0001", Status: status}
	}
	cases := []struct {
		subs []*core.Experiment
		want core.ExperimentStatus
	}{
		{[]*core.Experiment{mk(core.StatusApproved), mk(core.StatusApproved)}, core.StatusApproved},
		{[]*core.Experiment{mk(core.StatusApproved), mk(core.StatusPending)}, core.StatusPending},
		{[]*core.Experiment{mk(core.StatusPending), mk(core.StatusRejected)}, core.StatusRejected},
		{[]*core.Experiment{nil, mk(core.StatusApproved)}, core.StatusApproved},
	}
	for i, tc := range cases {
		if got := mergeExperiments("fexp-0001", "o", "d", tc.subs).Status; got != tc.want {
			t.Fatalf("case %d: status %s, want %s", i, got, tc.want)
		}
	}
}

func TestShardStatusesSorted(t *testing.T) {
	c, _ := newHarness(t, 3, "", testConfig())
	sts := c.ShardStatuses()
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("shard statuses not sorted: %v", ids)
	}
}

// A remote shard that can't be reached at all (transport error after
// the client's retries) and one answering 503 (recovery gate,
// admission shed) are both DOWN to the routing layer — the coordinator
// must answer 503 shard_unavailable, not relabel the outage a 400. A
// real API verdict from a live shard passes through untouched.
func TestRemoteErrClassifiesShardDown(t *testing.T) {
	if remoteErr(nil) != nil {
		t.Fatal("nil error must stay nil")
	}
	transport := fmt.Errorf("core: POST /x failed after 4 attempts: dial tcp: connection refused")
	if !errors.Is(remoteErr(transport), ErrShardDown) {
		t.Fatalf("transport error not classified down: %v", remoteErr(transport))
	}
	gate := &core.APIError{Status: 503, Code: core.ErrCodeUnavailable, Message: "recovering"}
	if !errors.Is(remoteErr(gate), ErrShardDown) {
		t.Fatalf("remote 503 not classified down: %v", remoteErr(gate))
	}
	notFound := &core.APIError{Status: 404, Code: core.ErrCodeNotFound, Message: "no such experiment"}
	got := remoteErr(notFound)
	if errors.Is(got, ErrShardDown) {
		t.Fatalf("API verdict 404 must pass through, got shard-down: %v", got)
	}
	var apiErr *core.APIError
	if !errors.As(got, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("404 verdict mangled: %v", got)
	}
}

// TestLocalShardForwardsNoBackendMethod: a coordinator calls every shard
// through core.Backend, reached through the one-method Shard slot, so
// LocalShard forwards none of the API. A method named after one of
// core.Backend's would be a second copy of that call growing back; the
// method set is read from the interface, so a Backend method added later
// is covered without an edit here.
func TestLocalShardForwardsNoBackendMethod(t *testing.T) {
	backend := reflect.TypeOf((*core.Backend)(nil)).Elem()
	local := reflect.TypeOf((*LocalShard)(nil))
	for i := 0; i < backend.NumMethod(); i++ {
		name := backend.Method(i).Name
		if _, ok := local.MethodByName(name); ok {
			t.Errorf("LocalShard.%s is named after a core.Backend method: LocalShard.Backend() hands out the controller's backend", name)
		}
	}
}
