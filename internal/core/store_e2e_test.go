package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// submitPingBatch uploads OK ping results for a contiguous range of an
// experiment's auto-named tasks.
func submitPingBatch(t *testing.T, c *Controller, probeID, expID string, from, to int) {
	t.Helper()
	var rs []probes.Result
	for i := from; i < to; i++ {
		rs = append(rs, probes.Result{
			TaskID:     fmt.Sprintf("%s-t%04d", expID, i),
			Experiment: expID,
			Kind:       probes.TaskPing,
			OK:         true,
			RTTms:      float64(20 + i%50),
		})
	}
	if _, err := c.submitResults(probeID, rs); err != nil {
		t.Fatal(err)
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

func pingAssignmentsFor(probeID string, n int) []probes.Assignment {
	var asg []probes.Assignment
	for i := 0; i < n; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: probeID,
			Task:    probes.Task{Kind: probes.TaskPing, Target: "1.2.3.4"},
		})
	}
	return asg
}

// TestMemtableLossRequeuesTasks is the crash-during-flush e2e at the
// controller level: results whose payloads only ever reached the store
// memtable are un-recorded at recovery and their tasks requeued, so the
// pipeline re-runs exactly what the crash lost and still converges to
// exactly-once.
func TestMemtableLossRequeuesTasks(t *testing.T) {
	dir := t.TempDir()
	cfg := DurabilityConfig{
		Trusted:         []string{"o"},
		LeaseTTL:        2,
		StoreFlushEvery: 8, // results 0..7 seal into a segment; 8..11 die in the memtable
	}
	live, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.RegisterProbe(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	exp, err := live.SubmitExperiment("o", "memtable drill", pingAssignmentsFor("p1", 12))
	if err != nil {
		t.Fatal(err)
	}
	live.leaseTasks("p1", 12)
	// Two batches: the first fills the memtable to FlushEvery and seals
	// a segment; the second's 4 records stay memtable-only.
	submitPingBatch(t, live, "p1", exp.ID, 0, 8)
	submitPingBatch(t, live, "p1", exp.ID, 8, 12)
	if !live.Done(exp.ID) {
		t.Fatal("drill not complete pre-crash")
	}
	if got := live.ResultStore().MemtableLen(); got != 4 {
		t.Fatalf("memtable holds %d records pre-crash, want 4", got)
	}
	// kill -9: no Close, no flush. The 4 memtable records are gone.
	rec, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	d := rec.DurabilityCounters()
	if d["recovery_results_requeued"] != 4 {
		t.Fatalf("recovery_results_requeued = %d, want 4", d["recovery_results_requeued"])
	}
	if rec.Done(exp.ID) {
		t.Fatal("experiment still Done despite lost payloads")
	}
	if got := len(rec.queues["p1"]); got != 4 {
		t.Fatalf("requeued tasks = %d, want 4", got)
	}
	if got := rec.Stats().Counters["results_recorded"]; got != 8 {
		t.Fatalf("results_recorded after reconcile = %d, want 8", got)
	}
	// The probe re-runs the requeued tasks; the pipeline converges.
	rec.leaseTasks("p1", 12)
	submitPingBatch(t, rec, "p1", exp.ID, 0, 12) // full redelivery: 8 dedup, 4 record
	if !rec.Done(exp.ID) {
		t.Fatal("pipeline did not converge after memtable loss")
	}
	rs := resultsOf(t, rec, exp.ID)
	if len(rs) != 12 {
		t.Fatalf("results = %d, want 12", len(rs))
	}
	perTask := map[string]int{}
	for _, r := range rs {
		perTask[r.TaskID]++
	}
	for id, n := range perTask {
		if n != 1 {
			t.Fatalf("task %s served %d times", id, n)
		}
	}
}

// TestQueryStableAcrossRestartAndCompaction is the acceptance check:
// /api/v1/query returns identical aggregates before and after both a
// graceful restart and a compaction that reduces the segment count.
func TestQueryStableAcrossRestartAndCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := DurabilityConfig{
		Trusted:           []string{"o"},
		StoreFlushEvery:   4,
		StoreTargetFrames: 64,
	}
	ctrl, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterProbe(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterProbe(ProbeInfo{ID: "p2", ASN: 37100, Country: "NG"}); err != nil {
		t.Fatal(err)
	}
	exp, err := ctrl.SubmitExperiment("o", "query drill", pingAssignmentsFor("p1", 20))
	if err != nil {
		t.Fatal(err)
	}
	// Spread submissions over ticks and probes so groups and tick
	// filters have structure.
	for i := 0; i < 20; i += 2 {
		probe := "p1"
		if i%4 == 0 {
			probe = "p2"
		}
		submitPingBatch(t, ctrl, probe, exp.ID, i, i+2)
		ctrl.Tick(1)
	}
	srv := httptest.NewServer(ctrl.Handler())
	cl := NewClient(srv.URL)

	queries := []struct {
		f  store.Filter
		by string
	}{
		{store.Filter{Experiment: exp.ID}, store.GroupCountry},
		{store.Filter{Experiment: exp.ID}, store.GroupASN},
		{store.Filter{FromTick: 3, ToTick: 7}, store.GroupCountryASN},
		{store.Filter{Country: "NG"}, ""},
	}
	var before []store.AggReport
	for _, q := range queries {
		rep, _, err := cl.QueryAggregate(q.f, q.by)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, rep)
	}
	if before[0].Matched != 20 {
		t.Fatalf("baseline query matched %d, want 20", before[0].Matched)
	}

	// Compaction must reduce the segment count and change no answer.
	segsBefore := ctrl.ResultStore().SegmentCount()
	if err := ctrl.CompactStore(); err != nil {
		t.Fatal(err)
	}
	if segsAfter := ctrl.ResultStore().SegmentCount(); segsAfter >= segsBefore {
		t.Fatalf("compaction did not reduce segments: %d -> %d", segsBefore, segsAfter)
	}
	for i, q := range queries {
		rep, _, err := cl.QueryAggregate(q.f, q.by)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, before[i]) {
			t.Fatalf("aggregate %d changed across compaction\nwant: %+v\ngot:  %+v", i, before[i], rep)
		}
	}
	if got := ctrl.Stats().Store["segments_compacted"]; got == 0 {
		t.Fatalf("segments_compacted not surfaced in stats: %v", ctrl.Stats().Store)
	}
	srv.Close()

	// Graceful restart: same answers from the reopened store.
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	srv2 := httptest.NewServer(rec.Handler())
	defer srv2.Close()
	cl2 := NewClient(srv2.URL)
	for i, q := range queries {
		rep, _, err := cl2.QueryAggregate(q.f, q.by)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, before[i]) {
			t.Fatalf("aggregate %d changed across restart\nwant: %+v\ngot:  %+v", i, before[i], rep)
		}
	}
}

// TestLargeIngestKeepsMemtableBounded ingests 100k results through
// SubmitResults against a durable controller and asserts the store's
// memtable stays bounded (heap does not grow with result volume) while
// the WAL carries only slim refs.
func TestLargeIngestKeepsMemtableBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-result ingest")
	}
	dir := t.TempDir()
	cfg := DurabilityConfig{Trusted: []string{"o"}}
	ctrl, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.RegisterProbe(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	const total, batch = 100_000, 2_000
	exp, err := ctrl.SubmitExperiment("o", "ingest drill", pingAssignmentsFor("p1", total))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i += batch {
		submitPingBatch(t, ctrl, "p1", exp.ID, i, i+batch)
	}
	st := ctrl.ResultStore()
	if got := st.MemtableLen(); got >= 1024 {
		t.Fatalf("memtable holds %d records after 100k ingest; flushes are not bounding it", got)
	}
	if got := st.Counters()["store_frames_appended"]; got != total {
		t.Fatalf("store_frames_appended = %d, want %d", got, total)
	}
	// Every batch crossing FlushEvery seals the memtable, so at least
	// one segment per batch exists.
	if st.SegmentCount() < total/batch {
		t.Fatalf("segments = %d after 100k ingest, want >= %d", st.SegmentCount(), total/batch)
	}
	if !ctrl.Done(exp.ID) {
		t.Fatal("ingest drill not complete")
	}
	// Compaction still reduces the segment count at this scale.
	before := st.SegmentCount()
	if err := ctrl.CompactStore(); err != nil {
		t.Fatal(err)
	}
	if after := st.SegmentCount(); after >= before {
		t.Fatalf("compaction did not reduce segments: %d -> %d", before, after)
	}
}

// TestOversizedBody413 covers the request-body bound: a submit payload
// over MaxBodyBytes is rejected with 413 and a JSON error, not read to
// completion, and so is one whose first value fits under the bound but
// whose trailing white space does not.
func TestOversizedBody413(t *testing.T) {
	ctrl := NewController("o")
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	// A syntactically plausible JSON value whose single string token
	// exceeds the bound — the decoder must hit the limit while still
	// scanning, exercising the MaxBytesReader path rather than a plain
	// syntax error.
	huge := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), MaxBodyBytes+1)...)
	huge = append(huge, []byte(`"}`)...)
	padded := append([]byte(`{"id":"p1","asn":1,"country":"NG","has_wired":false}`), bytes.Repeat([]byte(" "), MaxBodyBytes+10)...)
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/api/v1/probes/register", huge},
		{"/api/v1/probes/sync", huge},
		{"/api/v1/experiments", huge},
		{"/api/v1/probes/register", padded},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", tc.path, resp.StatusCode)
		}
		var body errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || body.Error.Code != ErrCodeBodyTooLarge || body.Error.Message == "" {
			t.Fatalf("%s: 413 without envelope error body (err=%v body=%+v)", tc.path, err, body)
		}
	}
	// A reasonable body still works.
	if err := NewClient(srv.URL).Register(ProbeInfo{ID: "p1", ASN: 1, Country: "NG"}); err != nil {
		t.Fatal(err)
	}
}

// TestResultsPaginationHTTP drives the paginated results endpoint and
// the scan op end to end through the client.
func TestResultsPaginationHTTP(t *testing.T) {
	ctrl := NewController("o")
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	if err := cl.Register(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	exp, err := ctrl.SubmitExperiment("o", "page drill", pingAssignmentsFor("p1", 23))
	if err != nil {
		t.Fatal(err)
	}
	submitPingBatch(t, ctrl, "p1", exp.ID, 0, 23)

	// Legacy shape still serves the whole array.
	whole, err := cl.Results(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 23 {
		t.Fatalf("legacy results = %d, want 23", len(whole))
	}

	var paged []probes.Result
	cursor, pages := "", 0
	for {
		rs, next, err := cl.ResultsPage(exp.ID, 10, cursor)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, rs...)
		pages++
		if next == "" {
			break
		}
		cursor = next
	}
	if pages != 3 || !reflect.DeepEqual(paged, whole) {
		t.Fatalf("pagination: %d pages, %d results (want 3 pages matching the legacy array)", pages, len(paged))
	}

	var scanned []store.Record
	cursor = ""
	for {
		items, next, _, err := cl.QueryScan(store.Filter{Experiment: exp.ID}, 7, cursor)
		if err != nil {
			t.Fatal(err)
		}
		scanned = append(scanned, itemRecords(t, items)...)
		if next == "" {
			break
		}
		cursor = next
	}
	if len(scanned) != 23 {
		t.Fatalf("scanned records = %d, want 23", len(scanned))
	}
	for i, rec := range scanned {
		if !reflect.DeepEqual(rec.Result, whole[i]) {
			t.Fatalf("scan record %d diverges from results payload", i)
		}
	}

	// Bad parameters are 400s, not panics.
	for _, url := range []string{
		srv.URL + "/api/v1/query?op=sum",
		srv.URL + "/api/v1/query?asn=not-a-number",
		srv.URL + "/api/v1/query?op=scan&limit=-2",
		srv.URL + fmt.Sprintf("/api/v1/experiments/%s/results?limit=x", exp.ID),
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", url, resp.StatusCode)
		}
	}
}
