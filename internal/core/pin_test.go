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

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
)

// pinView is what want.json holds: the recovered book as the commit that
// wrote the fixture saw it.
type pinView struct {
	Stats  StatsReport              `json:"stats"`
	Queues map[string][]probes.Task `json:"queues"`
	Leases map[string]LeaseInfo     `json:"leases"`
}

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

// TestLegacyJournalReplays recovers a data directory written by the last
// commit that journaled four probe op kinds (testdata/pin; never
// regenerate it) and requires the book that commit itself recovered from
// it. The writer, on a controller recovered with the config below:
// register p1/p2 (AS36924) and p3 (AS37006); a trusted experiment of
// 4/3/1 pings for them and 2 for the unregistered "ghost";
// LeaseTasks(p1, 0); Heartbeat(p2); SubmitResults(p1, first two) twice;
// Tick(1); LeaseTasks(p2, 2); LeaseTasks(ghost, 1); SyncProbe(p2, one
// result, 0); SyncProbe(p1, one result, -1); Tick(4); Heartbeat(p1);
// store flush; no Close. Probe contact is counted once now, so the two
// contact counters are left out of the comparison and syncs must equal
// the number of probe records instead; segment_cache_bytes is newer than
// the fixture and is checked against the pinned segment itself, and the
// upgrade's own snapshot is not the fixture's. The upgraded directory
// then recovers through plain Recover to the same book, less the
// counters that are that run's own (StatsReport).
func TestLegacyJournalReplays(t *testing.T) {
	pinned := filepath.Join("testdata", "pin")
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "store"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Recover truncates and appends, so it gets a copy.
	for _, name := range []string{"journal.log", filepath.Join("store", "seg-0000000000000001.seg")} {
		data, err := os.ReadFile(filepath.Join(pinned, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	kinds := journalKinds(t, dir)
	for _, kind := range []string{opHeartbeat, opLease, opResults, opSync} {
		if kinds[kind] == 0 {
			t.Fatalf("fixture holds no %s record: %v", kind, kinds)
		}
	}
	contacts := int64(kinds[opHeartbeat] + kinds[opLease] + kinds[opResults] + kinds[opSync])

	var want pinView
	data, err := os.ReadFile(filepath.Join(pinned, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cfg := DurabilityConfig{Trusted: []string{"pin"}, LeaseTTL: 5}
	c := mustUpgrade(t, dir, cfg)
	got := pinView{c.Stats(), c.Queues(), c.Leases()}

	if n := got.Stats.Counters["syncs"]; n != contacts || got.Stats.Counters["heartbeats"] != 0 {
		t.Errorf("syncs = %d, heartbeats = %d; want all %d probe records counted as syncs", n, got.Stats.Counters["heartbeats"], contacts)
	}
	for _, v := range []*pinView{&got, &want} {
		delete(v.Stats.Counters, "syncs")
		delete(v.Stats.Counters, "heartbeats")
	}
	// A gauge the fixture's writer did not have: the legacy walk loaded the
	// pinned segment, and the cache keeps the image of its 4 record frames.
	seg, err := os.ReadFile(filepath.Join(pinned, "store", "seg-0000000000000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if n, frames := got.Stats.Store["segment_cache_bytes"], framelog.Frames(seg); n != framelog.Span(frames[1:]) {
		t.Errorf("segment_cache_bytes = %d, want the pinned segment's %d record frames: %d", n, len(frames)-1, framelog.Span(frames[1:]))
	}
	delete(got.Stats.Store, "segment_cache_bytes")
	for _, k := range []string{"snapshots_written", "snapshot_bytes", "snapshot_frames"} {
		delete(got.Stats.Durability, k)
	}
	wantJSON, _ := json.MarshalIndent(want, "", "  ")
	if gotJSON, _ := json.MarshalIndent(got, "", "  "); !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("pinned directory upgrades to\n%s\nwant\n%s", gotJSON, wantJSON)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	again := mustRecover(t, dir, cfg)
	defer again.Close()
	got = pinView{again.Stats(), again.Queues(), again.Leases()}
	delete(got.Stats.Counters, "syncs")
	delete(got.Stats.Counters, "heartbeats")
	got.Stats.Durability, got.Stats.Store = want.Stats.Durability, want.Stats.Store
	if gotJSON, _ := json.MarshalIndent(got, "", "  "); !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("upgraded directory recovers to\n%s\nwant\n%s", gotJSON, wantJSON)
	}
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

// TestFramedSnapshotReplays recovers a data directory written by the
// commit that framed the snapshot (testdata/pin/framed; never regenerate
// it) — a snapshot.log of two assignment chunks, the journal tail behind
// it, the store's two segments — and requires the book that commit held
// when it abandoned the directory: want.json, the whole book in the
// rendering the legacy blob used (legacyState). The writer, on a
// controller recovered with the config below: register p1/p2 (AS36924)
// and p3 (AS37006); a trusted experiment (request id req-pin) of 258 pings
// dealt round-robin to them and 2 for the unregistered "ghost"; an
// untrusted one of 2 for p2; LeaseTasks(p1, 4), three of them delivered
// and one of those again; 29 times LeaseTasks(p3, 3), the last task
// (t0257) delivered; Tick(1); LeaseTasks(ghost, 1); store flush; Snapshot;
// Tick(1); LeaseTasks(p2, 2); SyncProbe(p2, one result, 1); store flush;
// no Close. Its snapshot head has no layout, so Upgrade reads it; the
// upgraded directory then recovers through plain Recover to the same book.
func TestFramedSnapshotReplays(t *testing.T) {
	pinned := filepath.Join("testdata", "pin", "framed")
	var want persistState
	data, err := os.ReadFile(filepath.Join(pinned, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if exp := want.Experiments["exp-0001"]; exp == nil || len(exp.Assignments) != 260 || len(want.Recorded["exp-0001"]) != 5 {
		t.Fatalf("want.json does not hold the pinned book: %.300s", data)
	}
	wantJSON, _ := json.Marshal(want)

	dir := t.TempDir()
	shipDir(t, pinned, dir) // Recover truncates and appends, so it gets a copy
	l, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Snap == nil || len(l.Snap.Frames) != 1+2+1+snapTailFrames || len(l.Records) != 3 {
		t.Fatalf("fixture opens to snapshot %+v and %d records", l.Snap, len(l.Records))
	}
	l.Close()
	cfg := DurabilityConfig{Trusted: []string{"pin"}, LeaseTTL: 5}
	c := mustUpgrade(t, dir, cfg)
	if d := c.DurabilityCounters(); d["recovery_replayed"] != 3 || d["recovery_results_requeued"] != 0 {
		t.Errorf("recovered with %v", d)
	}
	if got, _ := json.Marshal(legacyState(c)); !bytes.Equal(got, wantJSON) {
		t.Errorf("pinned directory upgrades to\n%s\nwant\n%s", got, wantJSON)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	again := mustRecover(t, dir, cfg)
	defer again.Close()
	if got, _ := json.Marshal(legacyState(again)); !bytes.Equal(got, wantJSON) {
		t.Errorf("upgraded directory recovers to\n%s\nwant\n%s", got, wantJSON)
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
// the steps TestFramedSnapshotReplays lists, up to and including
// SyncProbe(p2, one result, 1) (description "columns pin"); then a trusted
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
