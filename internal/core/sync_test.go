package core

// sync_test.go covers the batched hot path: one journal append per
// batch, retry dedup, unknown-probe rejection, long-poll parking and
// its wakeup sites, and crash/recover equivalence of the synced state
// (including the scheduler's served tallies).

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/probes"
)

// syncTestController boots a durable controller with one registered
// probe and n queued tasks.
func syncTestController(t *testing.T, n int) (*Controller, []probes.Task) {
	t.Helper()
	c, err := Recover(t.TempDir(), DurabilityConfig{Trusted: []string{"owner"}, LeaseTTL: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustRegister(t, c, "sy-01", 36924, "RW")
	var tasks []probes.Task
	if n > 0 {
		exp, err := c.SubmitExperiment("owner", "sync test", pingAssignments("sy-01", n))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range exp.Assignments {
			tasks = append(tasks, a.Task)
		}
	}
	return c, tasks
}

// TestSyncBatchSingleJournalAppend is the tentpole's durability claim:
// a full round — heartbeat + result batch + lease — costs exactly one
// journal append (and therefore one fsync), where the unbatched
// protocol costs one per call.
func TestSyncBatchSingleJournalAppend(t *testing.T) {
	c, tasks := syncTestController(t, 8)
	resp, err := c.SyncProbe("sy-01", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tasks) != 4 {
		t.Fatalf("leased %d tasks, want 4", len(resp.Tasks))
	}
	rs := make([]probes.Result, 0, 4)
	for _, task := range resp.Tasks {
		rs = append(rs, okResult(task))
	}

	before := c.DurabilityCounters()["journal_records_appended"]
	resp, err = c.SyncProbe("sy-01", rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	appends := c.DurabilityCounters()["journal_records_appended"] - before
	if appends != 1 {
		t.Fatalf("batched round cost %d journal appends, want exactly 1", appends)
	}
	if resp.Accepted != 4 || resp.Received != 4 {
		t.Fatalf("accepted/received = %d/%d, want 4/4", resp.Accepted, resp.Received)
	}
	if len(resp.Tasks) != 4 {
		t.Fatalf("second round leased %d tasks, want 4", len(resp.Tasks))
	}
	if got := c.Stats().Counters["results_recorded"]; got != 4 {
		t.Fatalf("results_recorded = %d, want 4", got)
	}
	_ = tasks
}

// TestSyncRetryDedups re-sends the same batch (a probe whose ack was
// lost): everything dedups, nothing double-records, and the response
// says so via Accepted < Received.
func TestSyncRetryDedups(t *testing.T) {
	c, _ := syncTestController(t, 4)
	first, err := c.SyncProbe("sy-01", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]probes.Result, 0, len(first.Tasks))
	for _, task := range first.Tasks {
		rs = append(rs, okResult(task))
	}
	if resp, err := c.SyncProbe("sy-01", rs, -1); err != nil || resp.Accepted != 4 {
		t.Fatalf("first delivery: accepted=%d err=%v, want 4/nil", resp.Accepted, err)
	}
	resp, err := c.SyncProbe("sy-01", rs, -1) // retry of the same frame
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || resp.Received != 4 {
		t.Fatalf("retry: accepted/received = %d/%d, want 0/4", resp.Accepted, resp.Received)
	}
	st := c.Stats()
	if st.Counters["results_recorded"] != 4 || st.Counters["results_deduped"] != 4 {
		t.Fatalf("recorded/deduped = %d/%d, want 4/4",
			st.Counters["results_recorded"], st.Counters["results_deduped"])
	}
	if st.OutstandingLeases != 0 {
		t.Fatalf("%d leases outstanding after delivery", st.OutstandingLeases)
	}
}

// TestSyncUnknownProbe rejects the whole batch for an unregistered
// probe — 404 over HTTP so a wiped controller tells probes to
// re-register rather than silently absorbing their results.
func TestSyncUnknownProbe(t *testing.T) {
	c, _ := syncTestController(t, 0)
	if _, err := c.SyncProbe("ghost", nil, 1); err == nil {
		t.Fatal("sync from unknown probe succeeded")
	}
	w := doReq(c.Handler(), http.MethodPost, "/api/v1/probes/sync",
		`{"probe_id":"ghost"}`, nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (body %s)", w.Code, w.Body.String())
	}
	decodeEnvelope(t, w)
}

// TestSyncEmptyProbeID is a 400, not a route miss.
func TestSyncEmptyProbeID(t *testing.T) {
	c, _ := syncTestController(t, 0)
	w := doReq(c.Handler(), http.MethodPost, "/api/v1/probes/sync", `{}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
}

// TestSyncLongPollDeadline parks a sync on an empty queue and requires
// a clean empty 200 once the wait elapses — the probe's cue to re-park.
func TestSyncLongPollDeadline(t *testing.T) {
	c, _ := syncTestController(t, 0)
	w := doReq(c.Handler(), http.MethodPost, "/api/v1/probes/sync?wait=30ms",
		`{"probe_id":"sy-01"}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	var resp SyncResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tasks) != 0 {
		t.Fatalf("empty fleet leased %d tasks", len(resp.Tasks))
	}
	c.mu.Lock()
	parked := len(c.waiters["sy-01"])
	c.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d waiters leaked after the deadline", parked)
	}
}

// TestSyncLongPollWakesOnApprove parks a sync, then approves an
// experiment assigning the probe work: the park must end with the fresh
// lease, well before the wait deadline.
func TestSyncLongPollWakesOnApprove(t *testing.T) {
	c, _ := syncTestController(t, 0)
	exp, err := c.SubmitExperiment("stranger", "pending until approved", pingAssignments("sy-01", 3))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan SyncResponse, 1)
	go func() {
		w := doReq(c.Handler(), http.MethodPost, "/api/v1/probes/sync?wait=20s",
			`{"probe_id":"sy-01","max":3}`, nil)
		var resp SyncResponse
		_ = json.Unmarshal(w.Body.Bytes(), &resp)
		done <- resp
	}()
	// Wait for the park to register, then approve.
	for i := 0; i < 200; i++ {
		c.mu.Lock()
		parked := len(c.waiters["sy-01"])
		c.mu.Unlock()
		if parked > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Backend().Approve(context.Background(), exp.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-done:
		if len(resp.Tasks) != 3 {
			t.Fatalf("woken sync leased %d tasks, want 3", len(resp.Tasks))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync stayed parked after approval enqueued its tasks")
	}
}

// TestSyncLongPollWakesOnExpiryRequeue parks a sync after the probe's
// queue drained into a lease, then ticks the lease dead: the requeue is
// an enqueue site and must wake the parked round.
func TestSyncLongPollWakesOnExpiryRequeue(t *testing.T) {
	c, _ := syncTestController(t, 2)
	if got := c.leaseTasks("sy-01", 2); len(got) != 2 {
		t.Fatalf("leased %d, want 2", len(got))
	}
	done := make(chan SyncResponse, 1)
	go func() {
		w := doReq(c.Handler(), http.MethodPost, "/api/v1/probes/sync?wait=20s",
			`{"probe_id":"sy-01"}`, nil)
		var resp SyncResponse
		_ = json.Unmarshal(w.Body.Bytes(), &resp)
		done <- resp
	}()
	for i := 0; i < 200; i++ {
		c.mu.Lock()
		parked := len(c.waiters["sy-01"])
		c.mu.Unlock()
		if parked > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Tick(int(c.LeaseTTL) + 1) // expire the leases; requeue to the same probe
	select {
	case resp := <-done:
		if len(resp.Tasks) == 0 {
			t.Fatal("woken sync leased nothing after expiry requeued its tasks")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync stayed parked after lease-expiry requeue")
	}
}

// TestSyncConcurrentRetriesExactlyOnce hammers the same result frame
// from many goroutines (a probe whose network retried aggressively):
// exactly one copy records, under -race.
func TestSyncConcurrentRetriesExactlyOnce(t *testing.T) {
	c, _ := syncTestController(t, 8)
	first, err := c.SyncProbe("sy-01", nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]probes.Result, 0, len(first.Tasks))
	for _, task := range first.Tasks {
		rs = append(rs, okResult(task))
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.SyncProbe("sy-01", rs, -1)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			accepted += resp.Accepted
			mu.Unlock()
		}()
	}
	wg.Wait()
	if accepted != 8 {
		t.Fatalf("concurrent retries accepted %d total, want exactly 8", accepted)
	}
	if got := c.Stats().Counters["results_recorded"]; got != 8 {
		t.Fatalf("results_recorded = %d, want 8", got)
	}
}

// TestSyncCrashRecoverEquivalence replays a history containing sync
// batches and checks the recovered controller matches the live one —
// including the scheduler's served tallies, which ride the journaled
// lease/sync applies.
func TestSyncCrashRecoverEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := DurabilityConfig{Trusted: []string{"owner"}, LeaseTTL: 10}
	live, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, live, "sy-01", 36924, "RW")
	mustRegister(t, live, "sy-02", 37282, "KE")
	if _, err := live.SubmitExperiment("owner", "wave", append(
		pingAssignments("sy-01", 6), pingAssignments("sy-02", 6)...)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, id := range []string{"sy-01", "sy-02"} {
			resp, err := live.SyncProbe(id, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			rs := make([]probes.Result, 0, len(resp.Tasks))
			for _, task := range resp.Tasks {
				rs = append(rs, okResult(task))
			}
			if _, err := live.SyncProbe(id, rs, -1); err != nil {
				t.Fatal(err)
			}
		}
		live.Tick(1)
	}
	want := viewOf(live)
	wantCov := live.Coverage()
	if wantCov.ServedTotal == 0 {
		t.Fatal("history served nothing; test is vacuous")
	}
	// Close snapshots, so the recovery below replays no tail: the crash
	// image taken here keeps the whole history as one.
	crashed := t.TempDir()
	shipDir(t, dir, crashed)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if n := rec.DurabilityCounters()["recovery_reflect_decodes"]; n != 0 {
		t.Fatalf("recovery read %d records through json.Unmarshal's fallback", n)
	}
	got := viewOf(rec)
	gotCov := rec.Coverage()
	assertEqualJSON(t, "controller state", want, got)
	assertEqualJSON(t, "coverage book", wantCov, gotCov)

	crash, err := Recover(crashed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer crash.Close()
	if d := crash.DurabilityCounters(); d["recovery_replayed"] == 0 || d["recovery_reflect_decodes"] != 0 {
		t.Fatalf("crash-image recovery: %v, want a replayed tail with no record through json.Unmarshal's fallback", d)
	}
}

// assertEqualJSON compares two values by canonical JSON (maps order-
// insensitively).
func assertEqualJSON(t *testing.T, what string, want, got any) {
	t.Helper()
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != string(g) {
		t.Fatalf("%s diverged after recovery:\n live: %s\n rec:  %s", what, w, g)
	}
}

// TestProbeSyncRoutePriority pins the sync route to the high admission
// class: under shed, fleet hot-path traffic must be the last thing
// dropped, exactly like the unbatched probe routes it replaces.
func TestProbeSyncRoutePriority(t *testing.T) {
	for _, rt := range APIRoutes() {
		if rt.Name == "probe_sync" {
			if rt.Priority != PriorityHigh {
				t.Fatalf("probe_sync priority = %s, want high", rt.Priority)
			}
			if rt.Method != http.MethodPost || rt.Pattern != "/api/v1/probes/sync" {
				t.Fatalf("probe_sync is %s %s", rt.Method, rt.Pattern)
			}
			return
		}
	}
	t.Fatal("probe_sync route missing from APIRoutes")
}
