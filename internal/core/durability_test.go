package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/faultinject"
	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/probes"
)

// journalEnds reads a crash image's journal.log: where its good frames
// end and where the file does. A live log is left with zeros between the
// two (framelog's allocated tail); a closed one has none.
func journalEnds(t *testing.T, dir string) (frames, size int64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return framelog.Span(framelog.Frames(raw)), int64(len(raw))
}

// tearJournal leaves garbage where the journal's next frame would start —
// behind the last good frame, in front of whatever zeros the live log had
// allocated — as a crash part-way through an append does. Nobody was told
// that append is safe.
func tearJournal(t *testing.T, dir string, garbage ...byte) {
	t.Helper()
	end, _ := journalEnds(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(garbage, end); err != nil {
		t.Fatal(err)
	}
}

// ctrlView is everything recovery equivalence is defined over: the full
// stats report (minus the run-scoped durability and store counters), the
// lease table, and the per-probe queues.
type ctrlView struct {
	Stats  StatsReport
	Leases map[string]LeaseInfo
	Queues map[string][]probes.Task
}

func viewOf(c *Controller) ctrlView {
	stats := c.Stats()
	stats.Durability = nil
	stats.Store = nil
	stats.Admission = nil
	return ctrlView{Stats: stats, Leases: c.Leases(), Queues: c.Queues()}
}

// ctrlOp is one valid controller mutation, replayable onto any
// controller. The generator only emits operations that journal (no
// no-op approvals), so "the last journal record" and "the last
// generated op" coincide for the truncation test.
type ctrlOp func(c *Controller)

// genOps builds a deterministic randomized operation sequence: probe
// registrations, trusted and untrusted submissions, approvals, leases,
// idempotent result uploads (including deliberate duplicates),
// heartbeats, and ticks that expire leases and kill silent probes.
func genOps(seed int64, n int) []ctrlOp {
	rng := rand.New(rand.NewSource(seed))
	probeIDs := []string{"pr-00", "pr-01", "pr-02", "pr-03"}
	var ops []ctrlOp
	for i, id := range probeIDs {
		p := ProbeInfo{ID: id, ASN: 36924, Country: "RW", HasWired: i%2 == 0}
		ops = append(ops, func(c *Controller) { _ = c.RegisterProbe(p) })
	}
	type expMeta struct {
		id      string
		tasks   int
		pending bool
	}
	var exps []expMeta
	nextExp := 0
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 2: // submit
			owner := "o"
			pending := false
			if rng.Intn(3) == 0 {
				owner, pending = "rando", true
			}
			tasks := 1 + rng.Intn(5)
			var asg []probes.Assignment
			for i := 0; i < tasks; i++ {
				asg = append(asg, probes.Assignment{
					ProbeID: probeIDs[rng.Intn(len(probeIDs))],
					Task:    probes.Task{Kind: probes.TaskPing, Target: "1.2.3.4"},
				})
			}
			nextExp++
			exps = append(exps, expMeta{id: fmt.Sprintf("exp-%04d", nextExp), tasks: tasks, pending: pending})
			ops = append(ops, func(c *Controller) { _, _ = c.SubmitExperiment(owner, "drill", asg) })
		case k < 3: // approve or reject a pending experiment
			pendIdx := -1
			for i := range exps {
				if exps[i].pending {
					pendIdx = i
					break
				}
			}
			if pendIdx < 0 {
				continue
			}
			exps[pendIdx].pending = false
			id := exps[pendIdx].id
			if rng.Intn(4) == 0 {
				ops = append(ops, func(c *Controller) { _ = c.Backend().Reject(context.Background(), id) })
			} else {
				ops = append(ops, func(c *Controller) { _ = c.Backend().Approve(context.Background(), id) })
			}
		case k < 6: // lease
			id := probeIDs[rng.Intn(len(probeIDs))]
			max := rng.Intn(4) // 0 means "all"
			ops = append(ops, func(c *Controller) { _ = c.leaseTasks(id, max) })
		case k < 8: // results (valid task ids; duplicates on purpose)
			if len(exps) == 0 {
				continue
			}
			em := exps[rng.Intn(len(exps))]
			var rs []probes.Result
			for i := 0; i < 1+rng.Intn(3); i++ {
				rs = append(rs, probes.Result{
					TaskID:     fmt.Sprintf("%s-t%04d", em.id, rng.Intn(em.tasks)),
					Experiment: em.id,
					OK:         true,
				})
			}
			id := probeIDs[rng.Intn(len(probeIDs))]
			ops = append(ops, func(c *Controller) { _, _ = c.submitResults(id, rs) })
		case k < 9: // heartbeat
			id := probeIDs[rng.Intn(len(probeIDs))]
			ops = append(ops, func(c *Controller) { _, _ = c.SyncProbe(id, nil, -1) })
		default: // tick
			ticks := 1 + rng.Intn(2)
			ops = append(ops, func(c *Controller) { c.Tick(ticks) })
		}
	}
	return ops[:n]
}

var testDurCfg = DurabilityConfig{
	Trusted:      []string{"o"},
	LeaseTTL:     2,
	SuspectAfter: 2,
	DeadAfter:    4,
	// Flush the results store on every append so these equivalence
	// tests never lose a memtable: recovery reconciliation then has
	// nothing to requeue and recovered state must match the live
	// controller exactly. Memtable-loss behavior is covered separately.
	StoreFlushEvery: 1,
}

// TestRecoveryEquivalenceProperty drives a journaled controller through
// randomized operation sequences (with automatic snapshot compaction in
// the loop) and asserts Recover rebuilds state identical to the live
// controller: same stats, same lease table, same queues. Midway the
// controller is killed with results in the store's memtable and
// recovered, so the history the final recovery rebuilds includes a
// recovery's own journaled requeue; the store is flushed before the final
// kill, which therefore loses nothing.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	// How many of the crash images recovered from below carried an
	// allocated tail: a killed controller leaves one unless its last
	// record triggered a compaction.
	zeroTails := 0
	defer func() {
		if zeroTails == 0 && !t.Failed() {
			t.Error("no recovery read a journal with an allocated tail")
		}
	}()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testDurCfg
			cfg.SnapshotEvery = 17 // small, so compaction happens many times
			cfg.StoreFlushEvery = 4
			live, err := Recover(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := genOps(seed, 300)
			for i, op := range ops {
				if i == len(ops)/2 {
					lost := live.ResultStore().MemtableLen()
					if frames, size := journalEnds(t, dir); size > frames {
						zeroTails++
					}
					if live, err = Recover(dir, cfg); err != nil {
						t.Fatal(err)
					}
					if d := live.DurabilityCounters(); d["recovery_results_requeued"] != int64(lost) || d["recovery_truncated_tail"] != 0 {
						t.Fatalf("mid-history recovery: %v, memtable held %d and the tail was clean", d, lost)
					}
					if d := live.DurabilityCounters(); d["recovery_reflect_decodes"] != 0 {
						t.Fatalf("mid-history recovery read %d records through json.Unmarshal's fallback", d["recovery_reflect_decodes"])
					}
				}
				op(live)
			}
			if err := live.ResultStore().Flush(); err != nil {
				t.Fatal(err)
			}
			dl := live.DurabilityCounters()
			if dl["snapshots_written"] == 0 {
				t.Fatalf("no snapshots written; durability=%v", dl)
			}
			if dl["journal_append_errors"] != 0 || dl["snapshot_errors"] != 0 {
				t.Fatalf("journal errors during drive: %v", dl)
			}

			if frames, size := journalEnds(t, dir); size > frames {
				zeroTails++
			}
			rec, err := Recover(dir, testDurCfg) // note: SnapshotEvery irrelevant for replay
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			dr := rec.DurabilityCounters()
			if dr["recovery_truncated_tail"] != 0 {
				t.Fatalf("clean journal reported a torn tail: %v", dr)
			}
			if dr["recovery_reflect_decodes"] != 0 {
				t.Fatalf("recovery read %d records through json.Unmarshal's fallback", dr["recovery_reflect_decodes"])
			}
			// Compaction worked: replay far fewer records than were appended.
			if dr["recovery_replayed"] >= dl["journal_records_appended"] {
				t.Fatalf("replayed %d of %d records; snapshots did not compact",
					dr["recovery_replayed"], dl["journal_records_appended"])
			}
			if lv, rv := viewOf(live), viewOf(rec); !reflect.DeepEqual(lv, rv) {
				t.Fatalf("recovered state diverged\nlive: %+v\nrec:  %+v", lv, rv)
			}
			// The recovered controller keeps working and journaling.
			rec.Tick(1)
			if rec.Now() != live.Now()+1 {
				t.Fatalf("recovered controller clock wedged: %d vs %d", rec.Now(), live.Now())
			}
			live.Close()
		})
	}
}

// TestRecoveryTruncatedTail kills the journal mid-record: the torn tail
// must be detected by checksum and discarded, and recovery must land on
// exactly the state produced by every operation before the torn one.
func TestRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	cfg := testDurCfg // no automatic snapshots: the whole run lives in the journal tail
	live, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(11, 120)
	for _, op := range ops {
		op(live)
	}
	// kill -9: no Close, no snapshot. Then tear the last record in
	// place: its last bytes never reached the disk, and what is there
	// instead is the zeros the log had allocated.
	frames, size := journalEnds(t, dir)
	if size <= frames {
		t.Fatalf("the killed controller's journal is %d bytes of frames in a %d-byte file: no allocated tail", frames, size)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 3), frames-3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	d := rec.DurabilityCounters()
	if d["recovery_truncated_tail"] != 1 {
		t.Fatalf("torn tail not surfaced: %v", d)
	}
	if d["recovery_replayed"] != int64(len(ops)-1) {
		t.Fatalf("replayed %d records, want %d (all but the torn one)", d["recovery_replayed"], len(ops)-1)
	}

	// Expected state: the same op sequence minus the torn final record,
	// applied to a plain in-memory controller.
	expected := NewController(cfg.Trusted...)
	expected.LeaseTTL = cfg.LeaseTTL
	expected.SuspectAfter = cfg.SuspectAfter
	expected.DeadAfter = cfg.DeadAfter
	for _, op := range ops[:len(ops)-1] {
		op(expected)
	}
	if ev, rv := viewOf(expected), viewOf(rec); !reflect.DeepEqual(ev, rv) {
		t.Fatalf("truncated-tail recovery diverged\nwant: %+v\ngot:  %+v", ev, rv)
	}
}

// TestJournalGrowsAndEverySyncAreCounted: journal_log_grows is the number
// of appends whose fsync also committed a file-size change — one per 64 KiB
// of journal, not one per record — and the fsync histogram sees every sync
// of journal.log, a compaction's included.
func TestJournalGrowsAndEverySyncAreCounted(t *testing.T) {
	dir := t.TempDir()
	live, err := Recover(dir, testDurCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	fsyncs := func() int64 {
		return int64(live.Observability().Snapshots()[MetricJournal+`{op="fsync"}`].Count)
	}
	for _, op := range genOps(31, 200) {
		op(live)
	}
	d := live.DurabilityCounters()
	_, size := journalEnds(t, dir)
	appended, grows := d["journal_records_appended"], d["journal_log_grows"]
	if appended < 200 || grows < 1 || grows<<16 > size || grows*100 > appended || fsyncs() != appended {
		t.Fatalf("%v and %d fsyncs over a %d-byte journal, want one grow per 64 KiB and one fsync per record", d, fsyncs(), size)
	}
	before := fsyncs()
	if err := live.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs(); got != before+1 {
		t.Fatalf("the snapshot's compaction added %d fsyncs to the histogram, want its one", got-before)
	}
	live.Tick(1)
	if got := live.DurabilityCounters()["journal_log_grows"]; got != grows+1 {
		t.Fatalf("journal_log_grows = %d after the first append to the compacted journal, was %d", got, grows)
	}
}

// TestMetricsScrapeTakesNoControllerLock: every family /metrics renders
// is its registry's own, so a scrape does not queue behind a mutator that
// holds the controller lock through an fsync or an automatic snapshot.
func TestMetricsScrapeTakesNoControllerLock(t *testing.T) {
	live, err := Recover(t.TempDir(), testDurCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, op := range genOps(7, 20) {
		op(live)
	}
	if err := live.Snapshot(); err != nil {
		t.Fatal(err)
	}
	scraped := make(chan string)
	live.mu.Lock()
	go func() {
		var b strings.Builder
		_ = live.Observability().WritePrometheus(&b)
		scraped <- b.String()
	}()
	var text string
	select {
	case text = <-scraped:
		live.mu.Unlock()
	case <-time.After(time.Second):
		live.mu.Unlock()
		<-scraped
		t.Fatal("a /metrics scrape waited on the controller lock")
	}
	for _, line := range []string{
		`obs_durability_events_total{name="snapshots_written"} 1`,
		`obs_durability_gauge{name="snapshot_frames"} `,
		`obs_pipeline_events_total{name="syncs"} `,
		"# TYPE obs_store_events_total counter",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("scrape lacks %s:\n%s", line, text)
		}
	}
}

// TestSnapshotCrashWindowRecovery simulates a crash between "snapshot
// renamed" and "journal compacted": the journal still holds records the
// snapshot covers, and replay must skip them instead of double-applying.
func TestSnapshotCrashWindowRecovery(t *testing.T) {
	dir := t.TempDir()
	live, err := Recover(dir, testDurCfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(23, 80)
	for _, op := range ops {
		op(live)
	}
	// Preserve the journal bytes, snapshot (which compacts), then put
	// the stale journal back — the exact on-disk shape of that crash.
	path := filepath.Join(dir, "journal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, testDurCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.DurabilityCounters()["recovery_replayed"]; got != 0 {
		t.Fatalf("replayed %d snapshot-covered records; want 0", got)
	}
	if lv, rv := viewOf(live), viewOf(rec); !reflect.DeepEqual(lv, rv) {
		t.Fatalf("snapshot-crash-window recovery diverged\nlive: %+v\nrec:  %+v", lv, rv)
	}
}

// TestSubmitRetrySafeUnderDuplication covers the un-stale-d comment:
// Submit is retryable now because submissions are deduplicated by
// request id. A transport that duplicates every delivery must still
// yield exactly one experiment.
func TestSubmitRetrySafeUnderDuplication(t *testing.T) {
	ctrl := NewController("o")
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	ft := faultinject.New(5)
	ft.DupProb = 1.0 // every request delivered twice
	cl := NewClientSeeded(srv.URL, 3)
	cl.HTTP = &http.Client{Transport: ft}
	cl.Sleep = func(time.Duration) {}

	exp, err := cl.Submit("o", "dup drill", pingAssignments("p1", 4))
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := cl.Submit("o", "dup drill", pingAssignments("p1", 4))
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID == exp2.ID {
		t.Fatal("distinct Submit calls collapsed into one experiment")
	}
	if got := ctrl.Stats().Experiments; got != 2 {
		t.Fatalf("experiments = %d, want 2 (duplicated deliveries deduped)", got)
	}
	if got := ctrl.DurabilityCounters()["submits_deduped"]; got < 2 {
		t.Fatalf("submits_deduped = %d, want >= 2", got)
	}
}

// TestRecoveryGate503 verifies the during-recovery contract: 503 with a
// Retry-After header while the gate is closed, normal service after.
func TestRecoveryGate503(t *testing.T) {
	gate := NewRecoveryGate()
	srv := httptest.NewServer(gate)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// The probe client treats the 503 window as transient: with enough
	// attempts it rides through a gate that opens mid-retry.
	ctrl := NewController()
	cl := NewClient(srv.URL)
	cl.MaxAttempts = 5
	tries := 0
	cl.Sleep = func(time.Duration) {
		if tries++; tries == 2 {
			gate.Ready(ctrl.Handler())
		}
	}
	if _, err := cl.Health(); err != nil {
		t.Fatalf("client did not retry through the recovery window: %v", err)
	}
}

// TestClosedControllerRefusesMutations: a sync that takes a durable
// controller's lock after Close — one that fetched the controller before a
// failover closed it — is refused as a StorageFault, not acknowledged and
// applied in memory alone.
func TestClosedControllerRefusesMutations(t *testing.T) {
	c := mustRecover(t, t.TempDir(), DurabilityConfig{})
	if err := c.RegisterProbe(ProbeInfo{ID: "p1", ASN: 1, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var fault *StorageFault
	if _, err := c.SyncProbe("p1", nil, -1); !errors.As(err, &fault) {
		t.Errorf("sync after Close: %v, want a StorageFault", err)
	}
	if err := c.RegisterProbe(ProbeInfo{ID: "p2", ASN: 1, Country: "RW"}); !errors.As(err, &fault) {
		t.Errorf("register after Close: %v, want a StorageFault", err)
	}
}
