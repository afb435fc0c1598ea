package core

// Recovery reconciles the dedup book against the store by the store's
// sealed watermark and journals what it requeues. These tests hold the
// watermark to the reference it replaced (a per-experiment Store.KeySet
// walk), pin the three defects the walk had, and name the crash windows.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// lossyCfg loses results at a crash: eight results seal a segment, the
// rest of a run sits in the memtable.
var lossyCfg = DurabilityConfig{Trusted: []string{"o"}, LeaseTTL: 1 << 20, StoreFlushEvery: 8}

func mustRecover(t *testing.T, dir string, cfg DurabilityConfig) *Controller {
	t.Helper()
	c, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkBook is the invariant every recovery must restore: per experiment
// the recorded set is exactly what the store holds (the walk recovery
// used to run), and every task of an approved experiment is recorded,
// queued or leased — none is lost.
func checkBook(t *testing.T, c *Controller, when string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := map[string]bool{}
	for _, q := range c.queues {
		for _, task := range q {
			pending[leaseKey(task)] = true
		}
	}
	for k := range c.leases {
		pending[k] = true
	}
	for id, exp := range c.experiments {
		have, err := c.store.KeySet(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec := c.recorded[id]; len(rec) != len(have) || !reflect.DeepEqual(sortedKeys(rec), sortedKeys(have)) {
			t.Fatalf("%s: %s recorded %v, store holds %v", when, id, sortedKeys(rec), sortedKeys(have))
		}
		if exp.Status != StatusApproved {
			continue
		}
		for _, a := range exp.Assignments {
			if !c.recorded[id][a.Task.ID] && !pending[leaseKey(a.Task)] {
				t.Fatalf("%s: task %s is neither recorded, queued nor leased", when, a.Task.ID)
			}
		}
	}
}

// TestWatermarkMatchesWalk runs random schedules of syncs (with
// redelivery), store flushes, compactions, snapshots, graceful closes
// and kills, and checks the book after every recovery.
func TestWatermarkMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			cfg := lossyCfg
			cfg.SnapshotEvery = []int{0, 7, 40}[rng.Intn(3)]
			cfg.StoreFlushEvery, cfg.StoreTargetFrames = 4, 8
			c := mustRecover(t, dir, cfg)
			probeIDs := []string{"pr-0", "pr-1", "pr-2"}
			for _, id := range probeIDs {
				mustRegister(t, c, id, 36924, "RW")
			}
			var sent []probes.Result // delivered at least once; redelivery draws from it
			recoveries := 0
			for step := 0; step < 160; step++ {
				switch k := rng.Intn(20); {
				case k < 3:
					if _, err := c.SubmitExperiment("o", "drill", pingAssignments(probeIDs[rng.Intn(3)], 1+rng.Intn(6))); err != nil {
						t.Fatal(err)
					}
				case k < 12: // deliver what the last lease handed out, lease more
					id := probeIDs[rng.Intn(3)]
					var rs []probes.Result
					leases := c.Leases()
					keys := make([]string, 0, len(leases))
					for k := range leases {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					for _, k := range keys {
						if l := leases[k]; l.ProbeID == id && rng.Intn(2) == 0 {
							rs = append(rs, okResult(l.Task))
						}
					}
					for i := 0; i < rng.Intn(3) && len(sent) > 0; i++ {
						rs = append(rs, sent[rng.Intn(len(sent))])
					}
					if _, err := c.SyncProbe(id, rs, rng.Intn(5)); err != nil {
						t.Fatal(err)
					}
					sent = append(sent, rs...)
				case k < 13:
					if err := c.ResultStore().Flush(); err != nil {
						t.Fatal(err)
					}
				case k < 14:
					if err := c.CompactStore(); err != nil {
						t.Fatal(err)
					}
				case k < 15:
					if err := c.Snapshot(); err != nil {
						t.Fatal(err)
					}
				case k < 16:
					c.Tick(1)
				case k < 17: // graceful restart
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
					c = mustRecover(t, dir, cfg)
					if n := c.DurabilityCounters()["recovery_results_requeued"]; n != 0 {
						t.Fatalf("step %d: recovery after Close requeued %d", step, n)
					}
					checkBook(t, c, fmt.Sprintf("step %d (close)", step))
				default: // kill: the controller is abandoned as it stands
					c = mustRecover(t, dir, cfg)
					recoveries++
					checkBook(t, c, fmt.Sprintf("step %d (kill)", step))
				}
			}
			if recoveries == 0 {
				t.Fatal("schedule never crashed")
			}
			c.Close()
		})
	}
}

// lossyRun drives a fresh directory to the shape TestMemtableLossRequeuesTasks
// uses — 12 tasks leased to p1, 8 results sealed, 4 in the memtable — and
// returns the abandoned controller and its experiment.
func lossyRun(t *testing.T, dir string, cfg DurabilityConfig) (*Controller, string) {
	t.Helper()
	c := mustRecover(t, dir, cfg)
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "drill", pingAssignmentsFor("p1", 12))
	if err != nil {
		t.Fatal(err)
	}
	c.leaseTasks("p1", 12)
	submitPingBatch(t, c, "p1", exp.ID, 0, 8)
	submitPingBatch(t, c, "p1", exp.ID, 8, 12)
	if got := c.ResultStore().MemtableLen(); got != 4 {
		t.Fatalf("memtable holds %d records, want 4", got)
	}
	return c, exp.ID
}

// TestSecondCrashReplaysRequeue: a recovery that requeued lost results
// is followed by a second crash with no snapshot in between. The second
// recovery replays the first one's requeue instead of a history in which
// it never happened.
func TestSecondCrashReplaysRequeue(t *testing.T) {
	dir := t.TempDir()
	cfg := lossyCfg
	_, expID := lossyRun(t, dir, cfg)

	live := mustRecover(t, dir, cfg) // first crash: 4 results lost and requeued
	if n := live.DurabilityCounters()["recovery_results_requeued"]; n != 4 {
		t.Fatalf("first recovery requeued %d, want 4", n)
	}
	if got := len(live.leaseTasks("p1", 12)); got != 4 {
		t.Fatalf("re-leased %d tasks, want 4", got)
	}
	submitPingBatch(t, live, "p1", expID, 8, 12) // memtable-only again
	want := viewOf(live)
	if want.Stats.Counters["results_deduped"] != 0 || want.Stats.Counters["tasks_leased"] != 16 {
		t.Fatalf("live counters before the second crash: %v", want.Stats.Counters)
	}

	rec := mustRecover(t, dir, cfg) // second crash: the same 4 lost again
	defer rec.Close()
	d := rec.DurabilityCounters()
	if d["recovery_results_requeued"] != 4 {
		t.Fatalf("second recovery requeued %d (this run's), want 4", d["recovery_results_requeued"])
	}
	// The live book, less the 4 results lost again.
	want.Stats.Counters["results_recorded"] -= 4
	want.Stats.QueuedTasks += 4
	want.Stats.Probes[0].Queued += 4
	exp, _ := rec.Experiment(expID)
	for _, a := range exp.Assignments[8:] {
		want.Queues["p1"] = append(want.Queues["p1"], a.Task)
	}
	if got := viewOf(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("second recovery diverged from the live run\nlive: %+v\nrec:  %+v", want, got)
	}
	checkBook(t, rec, "second recovery")
}

// TestRetentionDoesNotRequeue: results that retention aged out of the
// store are not lost results; a restart must not hand them out again.
func TestRetentionDoesNotRequeue(t *testing.T) {
	dir := t.TempDir()
	cfg := DurabilityConfig{Trusted: []string{"o"}, LeaseTTL: 1 << 20, StoreFlushEvery: 1, Retention: 2}
	c := mustRecover(t, dir, cfg)
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "drill", pingAssignmentsFor("p1", 2))
	if err != nil {
		t.Fatal(err)
	}
	c.leaseTasks("p1", 2)
	submitPingBatch(t, c, "p1", exp.ID, 0, 1) // a segment each
	submitPingBatch(t, c, "p1", exp.ID, 1, 2)
	c.Tick(10)
	if err := c.CompactStore(); err != nil {
		t.Fatal(err)
	}
	if got := c.ResultStore().Counters()["frames_expired"]; got == 0 {
		t.Fatal("retention expired nothing; the drill needs it to")
	}

	rec := mustRecover(t, dir, cfg) // crash
	defer rec.Close()
	if n := rec.DurabilityCounters()["recovery_results_requeued"]; n != 0 {
		t.Fatalf("recovery_results_requeued = %d, want 0", n)
	}
	if n := rec.Stats().Counters["results_recorded"]; n != 2 {
		t.Fatalf("results_recorded = %d, want 2", n)
	}
	if n := len(rec.queues["p1"]); n != 0 {
		t.Fatalf("%d expired measurements back on the probe's queue", n)
	}
}

// TestStoreAheadOfJournal: a sync seals a segment and dies before its
// record is journaled. The sealed payloads are unacknowledged extras; the
// refs journaled before them are at or below the watermark and stay.
func TestStoreAheadOfJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := lossyCfg
	cfg.StoreFlushEvery = 4
	c := mustRecover(t, dir, cfg)
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "drill", pingAssignmentsFor("p1", 6))
	if err != nil {
		t.Fatal(err)
	}
	c.leaseTasks("p1", 6)
	submitPingBatch(t, c, "p1", exp.ID, 0, 3) // seq 1-3, memtable
	c.BreakJournal()
	var rs []probes.Result
	for i := 3; i < 6; i++ {
		rs = append(rs, probes.Result{TaskID: fmt.Sprintf("%s-t%04d", exp.ID, i), Experiment: exp.ID, OK: true})
	}
	if _, err := c.submitResults("p1", rs); err == nil { // seals seq 1-6, journals nothing
		t.Fatal("append to a closed journal succeeded")
	}
	if c.ResultStore().SealedSeq() != 6 {
		t.Fatalf("sealed watermark %d, want 6", c.ResultStore().SealedSeq())
	}

	rec := mustRecover(t, dir, cfg)
	defer rec.Close()
	if n := rec.DurabilityCounters()["recovery_results_requeued"]; n != 0 {
		t.Fatalf("requeued %d; the three journaled results are sealed", n)
	}
	if n := rec.Stats().Counters["results_recorded"]; n != 3 {
		t.Fatalf("results_recorded = %d, want 3", n)
	}
	if n := len(rec.leases); n != 3 {
		t.Fatalf("%d leases outstanding, want the 3 whose results were never acknowledged", n)
	}
	// The probe's retry is accepted and the duplicates collapse at read time.
	submitPingBatch(t, rec, "p1", exp.ID, 3, 6)
	if got := len(resultsOf(t, rec, exp.ID)); got != 6 {
		t.Fatalf("%d results, want 6", got)
	}
}

// TestFlushThenKill: an explicit flush makes the memtable durable; the
// kill that follows loses nothing.
func TestFlushThenKill(t *testing.T) {
	dir := t.TempDir()
	c, _ := lossyRun(t, dir, lossyCfg)
	if err := c.ResultStore().Flush(); err != nil {
		t.Fatal(err)
	}
	want := viewOf(c)
	rec := mustRecover(t, dir, lossyCfg)
	defer rec.Close()
	if n := rec.DurabilityCounters()["recovery_results_requeued"]; n != 0 {
		t.Fatalf("requeued %d after a flush", n)
	}
	if got := viewOf(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged\nlive: %+v\nrec:  %+v", want, got)
	}
}

// TestKilledRecoveryRetries: a recovery killed after it worked out what
// was lost and before it journaled the requeue has written nothing of its
// own — it opened the journal and the store, no more — so the retry finds
// the same set.
func TestKilledRecoveryRetries(t *testing.T) {
	dir := t.TempDir()
	cfg := lossyCfg
	lossyRun(t, dir, cfg)
	l, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tail := len(l.Records)
	l.Close()
	// Opened and abandoned, like the recovery that died.
	if _, err := store.Open(filepath.Join(dir, "store"), store.Options{FlushEvery: 8}); err != nil {
		t.Fatal(err)
	}

	rec := mustRecover(t, dir, cfg)
	defer rec.Close()
	d := rec.DurabilityCounters()
	if d["recovery_results_requeued"] != 4 || d["recovery_replayed"] != int64(tail) {
		t.Fatalf("retry requeued %d and replayed %d, want 4 and %d", d["recovery_results_requeued"], d["recovery_replayed"], tail)
	}
	if kinds := journalKinds(t, dir); kinds[opRequeue] != 1 {
		t.Fatalf("journal holds %d %s records, want 1: %v", kinds[opRequeue], opRequeue, kinds)
	}
	checkBook(t, rec, "retry")
}

// makeLegacy rewrites the journal of a directory without a snapshot as
// the binary before the watermark would have left it: no seq on sync
// records.
func makeLegacy(t *testing.T, dir string) {
	t.Helper()
	l, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := l.Records
	l.Close()
	var log []byte
	for _, rec := range recs {
		if rec.Kind == opSync {
			var op map[string]json.RawMessage
			if err := json.Unmarshal(rec.Data, &op); err != nil {
				t.Fatal(err)
			}
			delete(op, "seq")
			if rec.Data, err = json.Marshal(op); err != nil {
				t.Fatal(err)
			}
		}
		frame, err := journal.EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, frame...)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
}

func recoverSeries(c *Controller, phase string) uint64 {
	return c.Observability().Snapshots()[MetricRecover+`{phase="`+phase+`"}`].Count
}

// TestRecoverKeepsNoRecoveryView: a recovery from a snapshot and a tail,
// then a snapshot, has each of the six phases on the registry once —
// store_open included, so no span of the recovery lands in no series.
// That the journal drops its recovery view is internal/journal's
// TestRebuildDropsTheRecoveryView.
func TestRecoverKeepsNoRecoveryView(t *testing.T) {
	dir := t.TempDir()
	c, _ := lossyRun(t, dir, lossyCfg)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.Tick(1)
	rec := mustRecover(t, dir, lossyCfg)
	defer rec.Close()
	if rec.DurabilityCounters()["recovery_replayed"] != 1 {
		t.Fatalf("drill wants a snapshot and a one-record tail: %v", rec.DurabilityCounters())
	}
	if err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"journal_open", "store_open", "snapshot", "decode", "replay", "reconcile"} {
		if recoverSeries(rec, phase) != 1 {
			t.Errorf("obs_recover_seconds{phase=%q} has %d observations, want 1", phase, recoverSeries(rec, phase))
		}
	}
}
