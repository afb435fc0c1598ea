package federation_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/faultinject"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/fleet"
	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// TestShardChaosEndToEnd is the federation capstone: a seeded chaos
// schedule kills and restarts durable shards mid-experiment while
// simulated probes (internal/fleet, each running the field probe's
// DrainWithSync over its spool) keep syncing through the coordinator's
// HTTP handler and an analyst keeps querying. One extra kill is permanent,
// so tick-driven failure detection must walk that shard through
// suspect → dead and fail it over (snapshot ship + journal replay)
// onto a replacement serving the same shard id. The run must converge
// to exactly-once completion of every experiment, with degraded
// partial query results observed mid-chaos and a complete,
// non-degraded answer at the end; probe breakers must never open
// (shard death is the coordinator's 503 + Retry-After, not transport
// failure); admission shedding must be visible in /metrics; and shard
// store memtables must stay bounded.
//
// OBS_FED_CHAOS_SEED / OBS_FED_CHAOS_ROUNDS select the timeline
// (defaults 11/28; `make chaos` runs a second seed and a longer one).
func TestShardChaosEndToEnd(t *testing.T) {
	seed := int64(11)
	if v := os.Getenv("OBS_FED_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("OBS_FED_CHAOS_SEED: %v", err)
		}
		seed = n
	}
	rounds := 28
	if v := os.Getenv("OBS_FED_CHAOS_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 10 {
			t.Fatalf("OBS_FED_CHAOS_ROUNDS: want an int >= 10, got %q", v)
		}
		rounds = n
	}

	shardIDs := []string{"shard-0", "shard-1", "shard-2"}
	sched := faultinject.GenerateSchedule(seed, faultinject.ScheduleConfig{
		Rounds:     rounds,
		MaxWindow:  3,
		Shards:     shardIDs,
		ShardKills: 2,
	})
	t.Logf("%s", sched)

	const flushEvery = 8
	base := t.TempDir()
	shardCfg := core.DurabilityConfig{
		Trusted:         []string{"obs"},
		LeaseTTL:        3,
		SuspectAfter:    4,
		DeadAfter:       8,
		SnapshotEvery:   32,
		StoreFlushEvery: flushEvery,
	}
	fedCfg := federation.Config{
		SuspectAfter:  1,
		DeadAfter:     2, // fast detector: a kill without a prompt restart fails over
		QueryDeadline: 5 * time.Second,
		HedgeAfter:    25 * time.Millisecond,
		AutoFailover:  true,
		Admission: core.AdmissionConfig{
			RouteRates:        map[string]core.RateLimit{"query": {PerTick: 1, Burst: 2}},
			RetryAfterSeconds: 1,
		},
	}
	fed, err := federation.BootLocal(base, len(shardIDs), shardCfg, fedCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	coord, locals := fed.Coordinator, fed.Shards
	// What each dead shard's journal ends in. A kill leaves the allocated
	// zeros of a live log behind the last acknowledged record; every other
	// scheduled kill, and the permanent one, also lands part-way through
	// an append (tear). The next recovery of that directory, or of its
	// shipped copy, must report exactly the tears: zeros are not one.
	tornOf := map[string]int64{}
	kills := 0
	checkTail := func(id string, ctrl *core.Controller) {
		if got := ctrl.DurabilityCounters()["recovery_truncated_tail"]; got != tornOf[id] {
			t.Errorf("%s: recovery_truncated_tail = %d, the crash tore %d frames", id, got, tornOf[id])
		}
		tornOf[id] = 0
	}
	failover := coord.Failover
	coord.Failover = func(id string, epoch int, commit func() error) error {
		err := failover(id, epoch, commit)
		if err == nil {
			checkTail(id, locals[id].Controller())
		}
		return err
	}

	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	admin := core.NewClientSeeded(srv.URL, 99)
	admin.MaxAttempts = 4
	admin.Sleep = func(time.Duration) {}
	analyst := core.NewClientSeeded(srv.URL, 98)
	analyst.MaxAttempts = 1
	analyst.Sleep = func(time.Duration) {}

	// Eight probes on one worker: each round visits them in turn, as the
	// field probe would, every visit one DrainWithSync. A round that fails
	// leaves its results in the probe's spool for the next one. The worker
	// talks to the coordinator over a socket with a breaker armed.
	probeIDs := make([]string, 8)
	for i := range probeIDs {
		probeIDs[i] = fleet.ProbeID(i)
	}
	fl, err := fleet.New(coord, coord.Handler(), fleet.Config{Probes: len(probeIDs), Workers: 1, Seed: seed})
	if err != nil {
		t.Fatalf("register the fleet: %v", err)
	}
	for _, cl := range fl.Clients {
		cl.Base, cl.HTTP = srv.URL, srv.Client()
		cl.MaxAttempts = 3
		cl.BreakerThreshold = 4 // would open fast on transport failures; 503s must not feed it
	}

	// Three experiments land at staggered rounds, each retried with a
	// stable request id until accepted — chaos may 503 a submission, and
	// the retry must repair a partial push, never duplicate it.
	type pendingExp struct {
		reqID string
		round int
		asg   []probes.Assignment
	}
	var pending []pendingExp
	totalTasks := 0
	for k := 0; k < 3; k++ {
		var asg []probes.Assignment
		for i, pid := range probeIDs {
			n := 2 + (i+k)%2
			for j := 0; j < n; j++ {
				asg = append(asg, probes.Assignment{
					ProbeID: pid,
					Task:    probes.Task{Kind: probes.TaskPing, Target: "203.0.113.9"},
				})
			}
		}
		pending = append(pending, pendingExp{
			reqID: fmt.Sprintf("chaos-exp-%d", k),
			round: k * rounds / 4,
			asg:   asg,
		})
		totalTasks += len(asg)
	}

	// The scheduled kills may restart quickly; one extra unscheduled
	// kill at 2/3 of the timeline is permanent, guaranteeing the
	// detector must fail a shard over.
	permKillRound := 2 * rounds / 3
	permShard := shardIDs[seed%int64(len(shardIDs))]

	epochAtKill := map[string]int{}
	epochOf := func(id string) int { // a shard's incarnation, as /api/v1/shards reports it
		for _, st := range coord.ShardStatuses() {
			if st.ID == id {
				return st.Epoch
			}
		}
		t.Fatalf("coordinator has no shard %s", id)
		return 0
	}
	// A shard's durable directory is the one its journaled epoch names.
	dirOf := func(id string) string { return federation.ShardDir(base, id, epochOf(id)) }
	sawDegraded := false
	doRound := func(round int) {
		for _, e := range sched.StartingAt(round, faultinject.EventShardKill) {
			if ctrl := locals[e.Target].Kill(); ctrl != nil {
				epochAtKill[e.Target] = epochOf(e.Target)
				if kills++; kills%2 == 1 {
					tear(t, dirOf(e.Target))
					tornOf[e.Target] = 1
				}
			}
		}
		if round == permKillRound {
			locals[permShard].Kill()
			epochAtKill[permShard] = epochOf(permShard)
			tear(t, dirOf(permShard))
			tornOf[permShard] = 1
		}
		for _, e := range sched.StartingAt(round, faultinject.EventShardRestart) {
			if e.Target == permShard && round >= permKillRound {
				continue // the permanent kill stays dead until failover
			}
			if epochOf(e.Target) != epochAtKill[e.Target] {
				continue // failover already replaced it under a new epoch
			}
			if locals[e.Target].Controller() != nil {
				continue // never killed (kill raced an earlier revive)
			}
			ctrl, err := core.Recover(dirOf(e.Target), shardCfg)
			if err != nil {
				t.Fatalf("restart %s: %v", e.Target, err)
			}
			checkTail(e.Target, ctrl)
			locals[e.Target].Revive(ctrl)
		}
		for _, pe := range pending {
			if round < pe.round {
				continue
			}
			// Idempotent: a request id that already succeeded returns the
			// same experiment and re-pushes nothing new.
			_, _ = admin.SubmitRequest(core.SubmitRequest{RequestID: pe.reqID, Owner: "obs", Description: "chaos drill", Assignments: pe.asg})
		}
		fl.Round()
		for i := 0; i < 3; i++ {
			recs, _, meta, err := analyst.QueryScan(store.Filter{}, 0, "")
			if err == nil && meta.Degraded && len(recs) > 0 {
				sawDegraded = true // partial-but-useful: the paper's degradation contract
			}
		}
		coord.Tick(1)
		// Whatever was killed, revived or failed over this round, no live
		// shard holds a key another one holds.
		if twice := federation.KeysOnTwoShards(t, locals); len(twice) != 0 {
			t.Fatalf("round %d: keys on two shards: %v", round, twice)
		}
	}

	for round := 0; round < rounds; round++ {
		doRound(round)
	}
	// Clear weather: keep driving until every task completes.
	converged := false
	for round := rounds; round < rounds+120; round++ {
		doRound(round)
		recs, _, meta, err := coord.ScanPage(store.Filter{}, 0, "")
		if err == nil && !meta.Degraded && len(recs) == totalTasks {
			converged = true
			break
		}
	}
	if !converged {
		recs, _, meta, err := coord.ScanPage(store.Filter{}, 0, "")
		t.Fatalf("chaos run did not converge: %d/%d records, meta=%+v, err=%v, counters=%v",
			len(recs), totalTasks, meta, err, coord.Counters())
	}

	// The detector actually walked a shard to dead and failed it over.
	ctrs := coord.Counters()
	if ctrs["fed_shard_dead"] == 0 || ctrs["fed_failovers"] == 0 {
		t.Fatalf("no dead-shard failover exercised: %v", ctrs)
	}
	if ep := epochOf(permShard); ep == 0 {
		t.Fatalf("permanently killed %s still at epoch %d", permShard, ep)
	}

	// Exactly-once, checked against the shards directly so federated
	// dedup cannot mask a double-write: across every current backend,
	// each (experiment, task) key appears exactly once.
	perKey := map[string]int{}
	for id, ls := range locals {
		recs, _, err := ls.ScanPage(store.Filter{}, 0, "")
		if err != nil {
			t.Fatalf("final scan of %s: %v", id, err)
		}
		for _, r := range recs {
			perKey[r.Key()]++
		}
	}
	if len(perKey) != totalTasks {
		t.Fatalf("distinct task keys = %d, want %d", len(perKey), totalTasks)
	}
	for k, n := range perKey {
		if n != 1 {
			t.Fatalf("key %s recorded %d times across shards", k, n)
		}
	}

	// So the federated aggregate, which merges per-shard folds and
	// deduplicates nothing across them, reports every task exactly once.
	rep, meta, err := coord.Aggregate(store.AggQuery{GroupBy: store.GroupCountry})
	if err != nil || meta.Degraded || rep.Matched != int64(totalTasks) {
		t.Fatalf("final aggregate: matched %d of %d, meta=%+v, err=%v", rep.Matched, totalTasks, meta, err)
	}
	if want, err := federation.BuildOracle(t, locals).Aggregate(store.AggQuery{GroupBy: store.GroupCountry}); err != nil || !reflect.DeepEqual(rep, want) {
		t.Fatalf("final aggregate diverges from the oracle (err %v):\n fed  %+v\n want %+v", err, rep, want)
	}

	// Mid-chaos partial degradation was actually observed.
	if sawDegraded {
		if ctrs["fed_degraded_queries"] == 0 {
			t.Fatalf("degraded queries seen by the analyst but not counted: %v", ctrs)
		}
	} else if ctrs["fed_degraded_queries"] == 0 {
		t.Fatalf("no degraded query in the whole run (seed %d): chaos tested nothing", seed)
	}

	// Shard death surfaced as 503 + Retry-After, not transport failure:
	// no probe breaker ever opened, and Retry-After was honored.
	honored := int64(0)
	for i, cl := range fl.Clients {
		rc := cl.ResilienceCounters()
		if rc["breaker_open_total"] != 0 {
			t.Fatalf("worker %d breaker opened during shard chaos: %v", i, rc)
		}
		honored += rc["retry_after_honored"]
	}
	if honored == 0 {
		t.Fatal("no probe ever honored a coordinator Retry-After")
	}

	// Load shedding is observable from outside through /metrics.
	for i := 0; i < 4; i++ {
		_, _, _ = analyst.QueryAggregate(store.Filter{}, "")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	shed := int64(-1)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, `obs_admission_events_total{name="requests_shed"} `); ok {
			shed, _ = strconv.ParseInt(rest, 10, 64)
		}
	}
	if shed <= 0 {
		t.Fatalf("requests_shed = %d in /metrics, want > 0", shed)
	}

	// Memory stays bounded however long the chaos ran.
	for id, ls := range locals {
		ctrl := ls.Controller()
		if ctrl == nil {
			t.Fatalf("shard %s ended the run dead", id)
		}
		if got := ctrl.ResultStore().MemtableLen(); got >= flushEvery {
			t.Fatalf("%s memtable holds %d records, flush threshold is %d", id, got, flushEvery)
		}
	}

	if len(sched.Events) == 0 {
		t.Fatal("empty chaos schedule; the drill tested nothing")
	}
}

// tear leaves garbage where a dead shard's journal would have put its
// next frame — behind the last good one, in front of the zeros the live
// log had allocated — as a crash part-way through an append does.
func tear(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "journal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xde, 0xad}, framelog.Span(framelog.Frames(raw))); err != nil {
		t.Fatal(err)
	}
}
