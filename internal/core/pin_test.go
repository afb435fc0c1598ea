package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
)

// journalKinds opens dir's journal and counts its records by kind.
func journalKinds(t *testing.T, dir string) map[string]int {
	t.Helper()
	l, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	kinds := map[string]int{}
	for _, rec := range l.Records {
		kinds[rec.Kind]++
	}
	return kinds
}

// TestNewJournalHasOneProbeKind drives every probe entry point — the Go
// API, the sync route, and a long-poll wake-up — on a durable controller
// and requires the journal to hold one probe op kind, probe_sync.
func TestNewJournalHasOneProbeKind(t *testing.T) {
	dir := t.TempDir()
	c, err := Recover(dir, DurabilityConfig{Trusted: []string{"owner"}})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, c, "kgl-01", 36924, "RW")
	if _, err := c.SubmitExperiment("owner", "kinds", pingAssignments("kgl-01", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SyncProbe("kgl-01", nil, -1); err != nil {
		t.Fatal(err)
	}
	leased := c.leaseTasks("kgl-01", 1)
	if len(leased) != 1 {
		t.Fatalf("leased %d, want 1", len(leased))
	}
	if n, err := c.submitResults("kgl-01", []probes.Result{okResult(leased[0])}); err != nil || n != 1 {
		t.Fatalf("SubmitResults = %d, %v", n, err)
	}
	if _, err := c.SyncProbe("kgl-01", nil, 1); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	// Drains the queue, so the next round parks.
	if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "kgl-01"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("sync: %d %s", w.Code, w.Body)
	}
	// A parked sync woken by an enqueue leases through the same op.
	woken := make(chan string, 1)
	go func() {
		woken <- doReq(h, http.MethodPost, "/api/v1/probes/sync?wait=20s", `{"probe_id": "kgl-01"}`, nil).Body.String()
	}()
	for parked := 0; parked == 0; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		parked = len(c.waiters["kgl-01"])
		c.mu.Unlock()
	}
	if _, err := c.SubmitExperiment("owner", "wake", pingAssignments("kgl-01", 1)); err != nil {
		t.Fatal(err)
	}
	if body := <-woken; !strings.Contains(body, `"tasks":[{`) {
		t.Fatalf("woken sync leased nothing: %s", body)
	}
	c.Tick(1)
	c.BreakJournal() // a crash: no final snapshot compacts the records away

	probeKinds := 0
	for kind, n := range journalKinds(t, dir) {
		switch {
		case kind == opSync:
			probeKinds += n
		case kind == opRegister || kind == opTick || strings.HasPrefix(kind, "experiment_"):
		default:
			t.Errorf("journal holds %d %q records", n, kind)
		}
	}
	// 4 Go-API rounds, the route's, the parked sync's first round and its wake-up.
	if probeKinds != 7 {
		t.Errorf("journal holds %d probe_sync records, want 7", probeKinds)
	}
}

// TestColumnsSnapshotReplays recovers a data directory written by the
// commit that wrote assignments in columns (testdata/pin/columns; never
// regenerate it) — a snapshot.log whose head has layout "columns", of
// three assignment chunks, one with a shape column; a journal tail behind
// it that ends in an experiment_submit_cols record with a caller's task id
// and two task bodies; the store's two segments — and requires the book
// that commit held when it abandoned the directory, in legacyState's
// rendering. The writer, on a controller recovered with the config below:
// register p1/p2 (AS36924) and p3 (AS37006); a trusted experiment
// (request id req-pin, description "columns pin") of 258 pings dealt
// round-robin to them and 2 for the unregistered "ghost"; an untrusted
// one of 2 for p2; LeaseTasks(p1, 4), three of them delivered and one of
// those again; 29 times LeaseTasks(p3, 3), the last task (t0257)
// delivered; Tick(1); LeaseTasks(ghost, 1); store flush; Snapshot;
// Tick(1); LeaseTasks(p2, 2); SyncProbe(p2, one result, 1); then a trusted
// submission (request id req-cols) of a ping to 10.0.0.2 for p1 under the
// caller's task id caller-id-1, a dns task for site0.RW for p2 and the
// same ping for p3; store flush; no Close.
func TestColumnsSnapshotReplays(t *testing.T) {
	pinned := filepath.Join("testdata", "pin", "columns")
	wantJSON, err := os.ReadFile(filepath.Join(pinned, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want persistState
	if err := json.Unmarshal(wantJSON, &want); err != nil {
		t.Fatal(err)
	}
	if exp := want.Experiments["exp-0003"]; exp == nil || len(exp.Assignments) != 3 || exp.Assignments[0].Task.ID != "caller-id-1" {
		t.Fatalf("want.json does not hold the pinned book: %.300s", wantJSON)
	}

	dir := t.TempDir()
	shipDir(t, pinned, dir) // Recover truncates and appends, so it gets a copy
	l, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Snap == nil || len(l.Snap.Frames) != 1+2+1+snapTailFrames || len(l.Records) != 4 || !bytes.Contains(l.Snap.Head, []byte(`"layout":"columns"`)) {
		t.Fatalf("fixture opens to snapshot %+v and %d records", l.Snap, len(l.Records))
	}
	if last := l.Records[3]; last.Kind != opSubmitCols || !bytes.Contains(last.Data, []byte(`"shape":[0,1,0]`)) {
		t.Fatalf("fixture's last record is %s %s", last.Kind, last.Data)
	}
	l.Close()
	c := mustRecover(t, dir, DurabilityConfig{Trusted: []string{"pin"}, LeaseTTL: 5})
	defer c.Close()
	if d := c.DurabilityCounters(); d["recovery_replayed"] != 4 || d["recovery_results_requeued"] != 0 {
		t.Errorf("recovered with %v", d)
	}
	// Every frame and record this binary wrote is cut, none read by json.Unmarshal.
	if n := c.DurabilityCounters()["recovery_reflect_decodes"]; n != 0 {
		t.Errorf("recovery read %d frames and records through json.Unmarshal's fallback", n)
	}
	if got, _ := json.Marshal(legacyState(c)); !bytes.Equal(append(got, '\n'), wantJSON) {
		t.Errorf("pinned directory recovers to\n%s\nwant\n%s", got, wantJSON)
	}
}
