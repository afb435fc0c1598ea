package core

// Microbenchmarks for the probe hot path, run against a fully durable
// controller (journal + fsync per mutation) so the numbers include the
// cost the batched sync endpoint exists to amortize, and for Recover over
// the directory a killed fleet leaves. check.sh's bench smoke keeps them
// running.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

func benchController(b *testing.B) *Controller {
	b.Helper()
	c, err := Recover(b.TempDir(), DurabilityConfig{
		Trusted:  []string{"bench"},
		LeaseTTL: 1 << 30, // never expire mid-benchmark
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if err := c.RegisterProbe(ProbeInfo{ID: "bench-probe", ASN: 36924, Country: "RW"}); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchEnqueue queues n tasks on the probe through a trusted
// (auto-approved) submission and returns them.
func benchEnqueue(b *testing.B, c *Controller, n int) []probes.Task {
	b.Helper()
	as := make([]probes.Assignment, n)
	for i := range as {
		as[i] = probes.Assignment{
			ProbeID: "bench-probe",
			Task:    probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"},
		}
	}
	exp, err := c.SubmitExperiment("bench", "bench workload", as)
	if err != nil {
		b.Fatal(err)
	}
	ts := make([]probes.Task, len(exp.Assignments))
	for i, a := range exp.Assignments {
		ts[i] = a.Task
	}
	return ts
}

func benchResults(ts []probes.Task) []probes.Result {
	rs := make([]probes.Result, len(ts))
	for i, t := range ts {
		rs[i] = probes.Result{TaskID: t.ID, Experiment: t.Experiment, Kind: t.Kind, OK: true, RTTms: 42}
	}
	return rs
}

// BenchmarkLease is one journaled single-task lease grant per op — the
// unbatched path's per-poll cost.
func BenchmarkLease(b *testing.B) {
	c := benchController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			benchEnqueue(b, c, 1024)
			b.StartTimer()
		}
		if got := c.leaseTasks("bench-probe", 1); len(got) != 1 {
			b.Fatalf("leased %d tasks, want 1", len(got))
		}
	}
}

// BenchmarkSubmitResultsBatch is one journaled 64-result upload per op
// — the unbatched path's delivery cost, already amortized over a batch
// body but still a round-trip separate from lease and heartbeat.
func BenchmarkSubmitResultsBatch(b *testing.B) {
	const batch = 64
	c := benchController(b)
	var tasks []probes.Task
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next+batch > len(tasks) {
			b.StopTimer()
			tasks = append(tasks[next:], benchEnqueue(b, c, batch*128)...)
			next = 0
			b.StartTimer()
		}
		rs := benchResults(tasks[next : next+batch])
		next += batch
		accepted, err := c.submitResults("bench-probe", rs)
		if err != nil {
			b.Fatal(err)
		}
		if accepted != batch {
			b.Fatalf("accepted %d, want %d", accepted, batch)
		}
	}
}

// BenchmarkSubmitHandler is one 6,400-assignment submission per op (200
// probes with 32 ping tasks each, in one body as json.Marshal writes it),
// served by Handler on an in-memory controller:
// the body's read and decode, the submit and its auto-approval, and the
// experiment echo. Each op gets a fresh controller, outside the timer.
func BenchmarkSubmitHandler(b *testing.B) {
	req := SubmitRequest{Owner: "bench", Description: "bench wave"}
	for w := 0; w < 32; w++ {
		for p := 0; p < 200; p++ {
			req.Assignments = append(req.Assignments, probes.Assignment{
				ProbeID: fmt.Sprintf("probe-%04d", p),
				Task:    probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"},
			})
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := NewController("bench").Handler()
		r := httptest.NewRequest(http.MethodPost, "/api/v1/experiments", bytes.NewReader(body))
		w := httptest.NewRecorder()
		b.StartTimer()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("submit: %d %.200s", w.Code, w.Body)
		}
	}
}

// BenchmarkSync is one full batched round per op: the previous round's
// 16 results plus a 16-task lease ask, one journal append and one fsync
// for the lot.
func BenchmarkSync(b *testing.B) {
	const round = 16
	c := benchController(b)
	benchEnqueue(b, c, 4096)
	resp, err := c.SyncProbe("bench-probe", nil, round)
	if err != nil {
		b.Fatal(err)
	}
	outbox := benchResults(resp.Tasks)
	queued := 4096 - len(resp.Tasks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if queued < round {
			b.StopTimer()
			benchEnqueue(b, c, 4096)
			queued += 4096
			b.StartTimer()
		}
		resp, err := c.SyncProbe("bench-probe", outbox, round)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Accepted != len(outbox) {
			b.Fatal(fmt.Errorf("accepted %d of %d", resp.Accepted, len(outbox)))
		}
		queued -= len(resp.Tasks)
		outbox = benchResults(resp.Tasks)
	}
}

// fleetCfg is obsd's defaults over a fleet: snapshots every 1024 records,
// the store's default memtable.
var fleetCfg = DurabilityConfig{Trusted: []string{"bench"}, LeaseTTL: 1 << 30, SnapshotEvery: 1024}

// longJournalCfg is the repo benchmark's crash_recover workload:
// automatic snapshots off, so the whole history is journal.
var longJournalCfg = DurabilityConfig{Trusted: []string{"bench"}, LeaseTTL: 1 << 30}

// fleetDir builds the directory a killed fleet leaves behind, the shape
// of the repo benchmark's fleet_sync workload: 800 probes with 8 pings
// each in one experiment, leased 4 at a time and all delivered, so the
// journal holds a snapshot and a tail, the store six sealed segments and
// a memtable of 256 results that the kill takes.
func fleetDir(tb testing.TB) string {
	return killedFleetDir(tb, fleetCfg, 800, 8, 4, false)
}

// longJournalDir is crash_recover's shape: 500 probes with 12 pings each
// leased 2 at a time, one store compaction half-way, and no snapshot — a
// 98 KB experiment_submit_cols (564 KB as the experiment_submit it
// replaced), 500 probe_register and 3 500 probe_sync records for recovery
// to replay.
func longJournalDir(tb testing.TB) string {
	return killedFleetDir(tb, longJournalCfg, 500, 12, 2, true)
}

// killedFleetDir drives a fleet of probes, all in one country and ASN,
// through driveFleet and abandons the controller without closing it.
func killedFleetDir(tb testing.TB, cfg DurabilityConfig, fleet, perProbe, lease int, compact bool) string {
	tb.Helper()
	dir := tb.TempDir()
	c, err := Recover(dir, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	driveFleet(tb, c, fleet, perProbe, lease, compact, func(int) (string, topology.ASN) { return "RW", 36924 })
	return dir
}

// driveFleet registers a fleet of probes, probe i where vantage(i) puts
// it, submits perProbe pings of one experiment for each, and runs
// lease-sized syncs until every result is delivered (compacting the
// store once half-way when asked).
func driveFleet(tb testing.TB, c *Controller, fleet, perProbe, lease int, compact bool, vantage func(i int) (string, topology.ASN)) {
	tb.Helper()
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%04d", i)
		country, asn := vantage(i)
		if err := c.RegisterProbe(ProbeInfo{ID: ids[i], ASN: asn, Country: country}); err != nil {
			tb.Fatal(err)
		}
	}
	var as []probes.Assignment
	for w := 0; w < perProbe; w++ {
		for _, id := range ids {
			as = append(as, probes.Assignment{ProbeID: id, Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"}})
		}
	}
	if _, err := c.SubmitExperiment("bench", "fleet", as); err != nil {
		tb.Fatal(err)
	}
	outbox := make([][]probes.Result, fleet)
	for round := 0; round <= perProbe/lease; round++ {
		if compact && round == (perProbe/lease+1)/2 {
			if err := c.CompactStore(); err != nil {
				tb.Fatal(err)
			}
		}
		for i, id := range ids {
			resp, err := c.SyncProbe(id, outbox[i], lease)
			if err != nil {
				tb.Fatal(err)
			}
			outbox[i] = benchResults(resp.Tasks)
		}
	}
	if got := c.Stats().Counters["results_recorded"]; got != int64(fleet*perProbe) {
		tb.Fatalf("fleet recorded %d results, want %d", got, fleet*perProbe)
	}
	if c.ResultStore().MemtableLen() == 0 || c.ResultStore().SegmentCount() == 0 {
		tb.Fatalf("fleet left %d in the memtable and %d segments; the kill needs both", c.ResultStore().MemtableLen(), c.ResultStore().SegmentCount())
	}
}

// shipDir copies a controller directory the way a failover ships one.
func shipDir(tb testing.TB, src, dst string) {
	tb.Helper()
	if err := journal.Clone(src, dst); err != nil {
		tb.Fatal(err)
	}
	if err := store.Clone(filepath.Join(src, "store"), filepath.Join(dst, "store")); err != nil {
		tb.Fatal(err)
	}
}

// benchRecover times Recover of a fresh copy of src per op; the copy and
// the recovered controller's teardown are outside the timer, and so is
// anything the caller does after it: it returns with the timer stopped.
func benchRecover(b *testing.B, src string, cfg DurabilityConfig) {
	defer b.StopTimer()
	scratch := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := filepath.Join(scratch, fmt.Sprint(i))
		shipDir(b, src, dst)
		b.StartTimer()
		c, err := Recover(dst, cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dst); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkRecoverReplay recovers the fleet directory as the kill left
// it: a snapshot, the journal tail after it, the lost memtable requeued.
func BenchmarkRecoverReplay(b *testing.B) {
	benchRecover(b, fleetDir(b), fleetCfg)
}

// BenchmarkRecoverLongJournal recovers a directory whose whole history is
// journal (longJournalDir): Recover's time is the three read stages and
// the ordered apply. Run at -cpu 1,2 to tell what one parse instead of
// two saves from what the second core does. submit_bytes is the size of
// the one submission record's data.
func BenchmarkRecoverLongJournal(b *testing.B) {
	src := longJournalDir(b)
	benchRecover(b, src, longJournalCfg)
	l, err := journal.Open(src)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for _, rec := range l.Records {
		if rec.Kind == opSubmitCols {
			b.ReportMetric(float64(len(rec.Data)), "submit_bytes")
		}
	}
}

// BenchmarkDecodeOps runs Recover's decode phase, journal.DecodeOps
// through replayOps, over longJournalDir's tail one record kind at a time:
// ns/record and allocs/record per kind.
func BenchmarkDecodeOps(b *testing.B) {
	l, err := journal.Open(longJournalDir(b))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	byKind := map[string][]journal.Record{}
	for _, rec := range l.Records {
		byKind[rec.Kind] = append(byKind[rec.Kind], rec)
	}
	for _, kind := range []string{opSync, opRegister, opSubmitCols} {
		recs := byKind[kind]
		b.Run(kind, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := journal.DecodeOps(replayOps, recs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * len(recs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
		})
	}
}

// BenchmarkRecoverSnapshot recovers the same book from a snapshot and an
// empty tail: a recovered copy that snapshotted and was killed again. Run
// at -cpu 1,2 like BenchmarkRecoverLongJournal: one core shows what the
// frames cost or save by themselves, the second what decoding them side
// by side adds. snapshot_bytes is the size of the snapshot.log recovered.
func BenchmarkRecoverSnapshot(b *testing.B) {
	src := fleetDir(b)
	c, err := Recover(src, fleetCfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		b.Fatal(err)
	}
	benchRecover(b, src, fleetCfg)
	b.ReportMetric(float64(c.DurabilityCounters()["snapshot_bytes"]), "snapshot_bytes")
}

// BenchmarkDecodeSnapshotFrames runs the snapshot phase's frame decode
// over BenchmarkRecoverSnapshot's snapshot one frame kind at a time, in
// one goroutine, each frame into slots of its size: ns/frame,
// allocs/frame and B/frame (the frame's size) per kind. A frame that goes
// to json.Unmarshal fails it, except the head and the submit ids, which
// json.Unmarshal always reads.
func BenchmarkDecodeSnapshotFrames(b *testing.B) {
	src := fleetDir(b)
	c, err := Recover(src, fleetCfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Close(); err != nil { // snapshots
		b.Fatal(err)
	}
	l, err := journal.Open(src)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var head snapHead
	if err := json.Unmarshal(l.Snap.Head, &head); err != nil {
		b.Fatal(err)
	}
	type frame struct {
		p      []byte
		decode func() (reflected bool, err error)
	}
	f, byKind := l.Snap.Frames, map[string][]frame{}
	add := func(kind string, p []byte, decode func() (bool, error)) {
		byKind[kind] = append(byKind[kind], frame{p, decode})
	}
	add("head", l.Snap.Head, func() (bool, error) {
		var h snapHead
		return false, json.Unmarshal(l.Snap.Head, &h)
	})
	for lo := 0; lo < head.Probes; lo += snapChunk {
		p, slots := f[0], make([]persistProbe, min(snapChunk, head.Probes-lo))
		add("probe_block", p, func() (bool, error) { return !cutProbeBlock(p, slots), nil })
		f = f[1:]
	}
	for _, e := range head.Experiments {
		for lo := 0; lo < e.Assignments; lo += snapChunk {
			p, dst := f[0], make([]probes.Assignment, min(snapChunk, e.Assignments-lo))
			add("chunk", p, func() (bool, error) {
				_, reflected, err := readChunk(p, dst)
				return reflected, err
			})
			f = f[1:]
		}
	}
	add("queues", f[0], func() (bool, error) {
		var queues map[string][]probes.Task
		return cutOr(f[0], &queues, cutQueues)
	})
	add("leases", f[1], func() (bool, error) {
		var leases map[string]persistLease
		return cutOr(f[1], &leases, cutLeases)
	})
	add("submit_ids", f[2], func() (bool, error) {
		var ids map[string]string
		return false, json.Unmarshal(f[2], &ids)
	})
	add("unsealed", f[3], func() (bool, error) {
		var refs []unsealedRef
		return cutOr(f[3], &refs, cutUnsealed)
	})
	for _, kind := range []string{"head", "probe_block", "chunk", "queues", "leases", "submit_ids", "unsealed"} {
		frames, size := byKind[kind], 0
		for _, fr := range frames {
			size += len(fr.p)
		}
		b.Run(kind, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, fr := range frames {
					if reflected, err := fr.decode(); err != nil || reflected {
						b.Fatalf("%s frame: json.Unmarshal read it (%t), error %v", kind, reflected, err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * len(frames))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/frame")
			b.ReportMetric(float64(size)/float64(len(frames)), "B/frame")
		})
	}
}

// BenchmarkChunkCodec encodes and decodes one chunk of snapChunk pings in
// one goroutine, in the column layout. The columns save by writing a task
// body once per chunk, so the chunk comes in two shapes: "one_body", every
// ping to the same target as in every bench/ workload, and
// "distinct_bodies", every ping to its own target, where there is nothing
// to share. B/assignment is the encoded chunk's size.
func BenchmarkChunkCodec(b *testing.B) {
	for _, bodies := range []string{"one_body", "distinct_bodies"} {
		chunk := make([]probes.Assignment, snapChunk)
		for i := range chunk {
			chunk[i] = probes.Assignment{ProbeID: fmt.Sprintf("probe-%04d", i), Task: probes.Task{
				ID: fmt.Sprintf("exp-0001-t%04d", i), Experiment: "exp-0001", Kind: probes.TaskPing, Target: "10.0.0.1",
			}}
			if bodies == "distinct_bodies" {
				chunk[i].Task.Target = fmt.Sprintf("10.0.1.%d", i)
			}
		}
		encode := func() ([]byte, error) { return json.Marshal(colsOf(chunk, nil)) }
		p, err := encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bodies+"/"+snapLayout+"/encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*snapChunk), "ns/assignment")
			b.ReportMetric(float64(len(p))/snapChunk, "B/assignment")
		})
		b.Run(bodies+"/"+snapLayout+"/decode", func(b *testing.B) {
			dst := make([]probes.Assignment, snapChunk)
			for i := 0; i < b.N; i++ {
				if _, _, err := readChunk(p, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*snapChunk), "ns/assignment")
			b.ReportMetric(float64(len(p))/snapChunk, "B/assignment")
		})
	}
}

// BenchmarkQueryScanHTTP is fleet_sync's first scan page at the handler:
// 6 400 ping records of four countries in six sealed 1 024-record
// segments and a memtable, GET /api/v1/query?op=scan for 200 of one
// country through Handler().ServeHTTP. internal/store's
// BenchmarkScanPageWarm times the walk under it; the difference is what
// the HTTP tier adds to a page.
func BenchmarkQueryScanHTTP(b *testing.B) {
	c, err := Recover(b.TempDir(), DurabilityConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	countries := []string{"NG", "KE", "ZA", "RW"}
	for i := 0; i < 6400; i++ {
		id := fmt.Sprintf("exp-0001-t%04d", i)
		probe := fmt.Sprintf("p%03d", i%100)
		err := c.ResultStore().Append(store.Record{
			Experiment: "exp-0001", TaskID: id, ProbeID: probe, Tick: int64(1 + i/128),
			Country: countries[i%4], ASN: topology.ASN(36900 + i%8),
			Result: probes.Result{TaskID: id, Experiment: "exp-0001", ProbeID: probe, Kind: probes.TaskPing,
				OK: i%10 != 0, RTTms: 5 + float64(i%977)/4.7, Interface: "wired", Bytes: 128},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	h := c.Handler()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/query?op=scan&country=KE&limit=200", nil)
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w
	}
	b.SetBytes(int64(serve().Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += serve().Body.Len()
	}
}

var benchSink int

// BenchmarkQueryAggregateHTTP is fleet_sync's agg_full at the handler: the
// fleet of fleetDir (800 probes with 8 pings each, leased 4 at a time, six
// sealed segments and 256 records in the memtable) spread over 8
// countries and 64 ASNs, GET /api/v1/query?op=aggregate&group_by=country_asn
// through Handler().ServeHTTP — 512 groups.
func BenchmarkQueryAggregateHTTP(b *testing.B) {
	c, err := Recover(b.TempDir(), fleetCfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	countries := []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}
	driveFleet(b, c, 800, 8, 4, false, func(i int) (string, topology.ASN) {
		return countries[i%8], topology.ASN(36900 + i/8%64)
	})
	h := c.Handler()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/query?op=aggregate&group_by=country_asn", nil)
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w
	}
	b.SetBytes(int64(serve().Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += serve().Body.Len()
	}
}

// TestRecoverOpensNoSegment: recovering a directory this binary wrote
// costs what the crash could lose, not what the store holds — it requeues
// the lost memtable without reading one sealed segment.
func TestRecoverOpensNoSegment(t *testing.T) {
	dir := fleetDir(t)
	c, err := Recover(dir, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.DurabilityCounters()["recovery_results_requeued"]; got != 256 {
		t.Fatalf("recovery_results_requeued = %d, want the memtable's 256", got)
	}
	ctr := c.ResultStore().Counters()
	if ctr["segment_cache_misses"] != 0 || ctr["segment_cache_records"] != 0 {
		t.Fatalf("recovery decoded segments: %v", ctr)
	}
	checkBook(t, c, "fleet recovery")
}
