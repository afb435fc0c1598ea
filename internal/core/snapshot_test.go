package core

// The snapshot is a frame file written straight from live state and read
// back on every core. These tests hold it to the one-blob snapshot.json it
// replaced (whose writer survives here, as the oracle), to itself across
// worker counts, and to "the whole book or an error" under damage.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/probes"
)

// persistState is the controller's full book the way the blob snapshot
// carried it, and testdata/pin/columns/want.json still does. Set-valued
// maps are sorted slices. Result payloads are absent — they live in the
// results store — and so is the task-id index, which a book derives from
// the experiments' assignments.
type persistState struct {
	persistScalars
	Probes      map[string]persistProbe  `json:"probes,omitempty"`
	Experiments map[string]*Experiment   `json:"experiments,omitempty"`
	Queues      map[string][]probes.Task `json:"queues,omitempty"`
	Recorded    map[string][]string      `json:"recorded,omitempty"`
	Unsealed    []unsealedRef            `json:"unsealed"`
	Leases      map[string]persistLease  `json:"leases,omitempty"`
	SubmitIDs   map[string]string        `json:"submit_ids,omitempty"`
}

// legacyState captures the controller's book the way the blob snapshot's
// writer did: every map copied key by key, every set a sorted slice. It
// shares no code with snapshotFrames or decodeSnapshot, which is what
// makes it their oracle, and two equal books give DeepEqual states.
func legacyState(c *Controller) persistState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := persistState{
		persistScalars: persistScalars{
			Now:           c.now,
			NextExpID:     c.nextExpID,
			Counters:      c.stats.Snapshot(),
			Trusted:       sortedKeys(c.trusted),
			ServedTotal:   c.servedTotal,
			ServedCountry: map[string]int64{},
			ServedASN:     map[string]int64{},
		},
		Probes:      map[string]persistProbe{},
		Experiments: map[string]*Experiment{},
		Queues:      map[string][]probes.Task{},
		Recorded:    map[string][]string{},
		Leases:      map[string]persistLease{},
		SubmitIDs:   map[string]string{},
	}
	for id, ps := range c.probes {
		st.Probes[id] = persistProbe{Info: ps.info, LastSeen: ps.lastSeen, Health: ps.health}
	}
	for id, exp := range c.experiments {
		st.Experiments[id] = cloneExp(exp)
	}
	for id, q := range c.queues {
		if len(q) > 0 {
			st.Queues[id] = append([]probes.Task(nil), q...)
		}
	}
	for id, set := range c.recorded {
		st.Recorded[id] = sortedKeys(set)
	}
	for k, l := range c.leases {
		st.Leases[k] = persistLease{Task: l.task, ProbeID: l.probeID, Deadline: l.deadline}
	}
	for k, v := range c.submitIDs {
		st.SubmitIDs[k] = v
	}
	c.pruneUnsealed(c.store.SealedSeq())
	st.Unsealed = append([]unsealedRef{}, c.unsealed...)
	for k, v := range c.servedCountry {
		st.ServedCountry[k] = v
	}
	for k, v := range c.servedASN {
		st.ServedASN[k] = v
	}
	return st
}

// writeLegacySnapshot writes dir's snapshot.json as binaries before the
// framed snapshot did: {"seq":N,"crc":C,"state":S}.
func writeLegacySnapshot(t testing.TB, dir string, seq uint64, state any) {
	t.Helper()
	raw, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	file := fmt.Sprintf(`{"seq":%d,"crc":%d,"state":%s}`, seq, crc32.ChecksumIEEE(raw), raw)
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readSnapshotLog(t testing.TB, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.log"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

var wideCfg = DurabilityConfig{Trusted: []string{"o"}, LeaseTTL: 1 << 20, StoreFlushEvery: 64}

// wideBook leaves a killed controller's directory whose snapshot takes
// more than one frame of everything: 300 probes (two blocks), an
// experiment of 700 assignments (three chunks) of which every third probe
// delivered its first, plus a small second experiment, a pending third,
// leases out and queues waiting.
func wideBook(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	c, err := Recover(dir, wideCfg)
	if err != nil {
		t.Fatal(err)
	}
	var wide []probes.Assignment
	ids := make([]string, 300)
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%03d", i)
		if err := c.RegisterProbe(ProbeInfo{ID: ids[i], ASN: 36924, Country: "RW", HasWired: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 700; i++ {
		wide = append(wide, probes.Assignment{ProbeID: ids[i%len(ids)], Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"}})
	}
	for _, sub := range []struct {
		owner string
		asg   []probes.Assignment
	}{{"o", wide}, {"o", pingAssignments(ids[7], 3)}, {"rando", pingAssignments(ids[8], 2)}} {
		if _, err := c.Backend().Submit(context.Background(), SubmitRequest{RequestID: "req-" + sub.owner + fmt.Sprint(len(sub.asg)), Owner: sub.owner, Description: "wide", Assignments: sub.asg}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(ids); i += 3 {
		resp, err := c.SyncProbe(ids[i], nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SyncProbe(ids[i], []probes.Result{okResult(resp.Tasks[0])}, -1); err != nil {
			t.Fatal(err)
		}
	}
	c.Tick(2)
	if c.ResultStore().MemtableLen() == 0 || len(c.leases) == 0 {
		t.Fatalf("wide book left %d in the memtable and %d leases; it wants both", c.ResultStore().MemtableLen(), len(c.leases))
	}
	return dir
}

// history is a killed controller's directory and the config it ran with.
type history struct {
	dir string
	cfg DurabilityConfig
}

// equivalenceHistories are killed directories to recover from: the
// recovery-equivalence op sequences, all journal and snapshot + tail,
// each with a memtable lost, and the wide book.
func equivalenceHistories(t *testing.T) map[string]history {
	out := map[string]history{"wide": {wideBook(t), wideCfg}}
	for seed := int64(1); seed <= 3; seed++ {
		for _, every := range []int{0, 64} {
			cfg := testDurCfg
			cfg.SnapshotEvery, cfg.StoreFlushEvery = every, 4
			dir := t.TempDir()
			live := mustRecover(t, dir, cfg)
			for _, op := range genOps(seed, 300) {
				op(live)
			}
			live.BreakJournal() // killed: no final snapshot, a memtable lost
			out[fmt.Sprintf("seed %d snapshot every %d", seed, every)] = history{dir, cfg}
		}
	}
	return out
}

// TestSnapshotIsWorkerCountIndependent: one worker and eight write a
// byte-identical snapshot.log from the same book and restore the same
// book from it.
func TestSnapshotIsWorkerCountIndependent(t *testing.T) {
	for name, h := range equivalenceHistories(t) {
		var file [2][]byte
		var book [2]persistState
		for i, workers := range []int{1, 8} {
			dir := t.TempDir()
			shipDir(t, h.dir, dir)
			prev := par.SetDefaultWorkers(workers)
			c := mustRecover(t, dir, h.cfg)
			if err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
			file[i] = readSnapshotLog(t, dir)
			c.BreakJournal()
			again := mustRecover(t, dir, h.cfg)
			par.SetDefaultWorkers(prev)
			if again.DurabilityCounters()["recovery_replayed"] != 0 {
				t.Fatalf("%s: second recovery replayed a tail; it should read the snapshot alone", name)
			}
			book[i] = legacyState(again)
			if want := legacyState(c); !reflect.DeepEqual(book[i], want) {
				t.Errorf("%s, %d workers: restored book differs from the one snapshotted\n got %+v\nwant %+v", name, workers, book[i], want)
			}
			again.Close()
		}
		if !bytes.Equal(file[0], file[1]) {
			t.Errorf("%s: 1 worker and 8 write different snapshot.log (%d and %d bytes)", name, len(file[0]), len(file[1]))
		}
		if !reflect.DeepEqual(book[0], book[1]) {
			t.Errorf("%s: 1 worker and 8 restore different books", name)
		}
	}
}

// TestBookSnapshotRoundTrip: a recovered controller's book, encoded by
// snapshotFrames and decoded by decodeSnapshot with no disk between them,
// is the same book — its unsealed list as the encode's caller prunes it,
// and its pipeline counters, which live outside it, compared on their own.
func TestBookSnapshotRoundTrip(t *testing.T) {
	for name, h := range equivalenceHistories(t) {
		c := mustRecover(t, h.dir, h.cfg)
		c.pruneUnsealed(c.store.SealedSeq())
		head, frames, err := c.snapshotFrames()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(head)
		if err != nil {
			t.Fatal(err)
		}
		got, counts := newBook(), obs.NewRegistry().Counters("round_trip")
		got.LeaseTTL, got.SuspectAfter, got.DeadAfter, got.stats = c.LeaseTTL, c.SuspectAfter, c.DeadAfter, counts
		if reflected, err := decodeSnapshot(&journal.Snapshot{Head: raw, Frames: frames}, &got); err != nil || reflected != 0 {
			t.Fatalf("%s: decoding the encoded book: %v, %d frames through json.Unmarshal", name, err, reflected)
		}
		want, bare := c.book, got
		want.stats, want.wake, bare.stats = nil, nil, nil
		if !reflect.DeepEqual(bare, want) {
			t.Errorf("%s: the book decodes to another\n got %+v\nwant %+v", name, legacyState(&Controller{book: got, store: c.store}), legacyState(c))
		}
		if got, want := counts.Snapshot(), c.stats.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counters decode to %v, want %v", name, got, want)
		}
		c.Close()
	}
}

// TestBlobAndFramesRecoverAlike checks the framed shape only, whatever
// its name says: a book written as frames by Snapshot recovers to the
// state legacyState captures from the live controller, and to the same
// snapshot bytes once it snapshots again. A blob snapshot is refused
// (TestRecoverRefusesEveryOlderShape).
func TestBlobAndFramesRecoverAlike(t *testing.T) {
	for name, h := range equivalenceHistories(t) {
		dir := t.TempDir()
		shipDir(t, h.dir, dir)
		c := mustRecover(t, dir, h.cfg)
		if err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
		c.BreakJournal()
		written, want := readSnapshotLog(t, dir), legacyState(c)

		rec := mustRecover(t, dir, h.cfg)
		if got := rec.DurabilityCounters(); got["recovery_replayed"] != 0 {
			t.Fatalf("%s: recovered with %v", name, got)
		}
		if got := legacyState(rec); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered book differs\n got %+v\nwant %+v", name, got, want)
		}
		if got, live := viewOf(rec), viewOf(c); !reflect.DeepEqual(got, live) {
			t.Errorf("%s: recovered view differs\n got %+v\nwant %+v", name, got, live)
		}
		if err := rec.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if next := readSnapshotLog(t, dir); !bytes.Equal(next, written) {
			t.Errorf("%s: the recovered book snapshots to other bytes (%d, first %d)", name, len(next), len(written))
		}
		rec.Close()
	}
}

// reframe renders payloads as a frame file.
func reframe(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out, _ = framelog.AppendFrame(out, p)
	}
	return out
}

// TestDamagedSnapshotFailsRecovery: Recover of a directory whose
// snapshot.log is anything but the file that was written returns an error
// — from the journal for what a checksum or the frame count can tell,
// from the decode for a file whose frames are sound and whose head does
// not describe them, or names a layout this binary does not read — and
// never a controller holding part of the book.
func TestDamagedSnapshotFailsRecovery(t *testing.T) {
	src := t.TempDir()
	shipDir(t, wideBook(t), src)
	c := mustRecover(t, src, wideCfg)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.BreakJournal()
	good := readSnapshotLog(t, src)
	frames := framelog.Frames(good)
	// header, 2 probe blocks, 3 + 1 + 1 chunks, 4 tail frames
	if len(frames) != 12 {
		t.Fatalf("wide book's snapshot holds %d frames, want 12", len(frames))
	}
	edit := func(i int, old, new string) []byte {
		if !bytes.Contains(frames[i], []byte(old)) {
			t.Fatalf("frame %d does not hold %s: %.200s", i, old, frames[i])
		}
		out := append([][]byte(nil), frames...)
		out[i] = bytes.Replace(frames[i], []byte(old), []byte(new), 1)
		return reframe(out)
	}
	swap := func(i, j int) []byte {
		out := append([][]byte(nil), frames...)
		out[i], out[j] = out[j], out[i]
		return reframe(out)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x04
	last := framelog.HeaderBytes + len(frames[len(frames)-1])
	for name, tc := range map[string]struct {
		file []byte
		want string
	}{
		"dropped last frame":      {good[:len(good)-last], "corrupt snapshot"},
		"flipped byte":            {flipped, "corrupt snapshot"},
		"header count one over":   {edit(0, `"frames":11`, `"frames":12`), "corrupt snapshot"},
		"header count one under":  {edit(0, `"frames":11`, `"frames":10`), "corrupt snapshot"},
		"one probe too few":       {edit(0, `"probes":300`, `"probes":299`), "decoding snapshot: frame 2"},
		"a block's worth too few": {edit(0, `"probes":300`, `"probes":256`), "decoding snapshot: head lays out"},
		"probes beyond all bound": {edit(0, `"probes":300`, `"probes":9000000000000000000`), "decoding snapshot: head lays out"},
		"negative assignments":    {edit(0, `"assignments":700`, `"assignments":-700`), "decoding snapshot: head lays out"},
		"one assignment too many": {edit(0, `"assignments":700`, `"assignments":701`), "decoding snapshot: frame 5"},
		"experiment named twice":  {edit(0, `"id":"exp-0002"`, `"id":"exp-0001"`), "decoding snapshot: head names"},
		"chunks out of place":     {swap(4, 5), "decoding snapshot: frame 4"},
		"probe named twice":       {edit(1, `"id":"probe-001"`, `"id":"probe-000"`), "decoding snapshot: probe blocks name 299"},
		"run out of range":        {edit(3, `"recorded":[[0,1]`, `"recorded":[[0,257]`), "decoding snapshot: frame 3: recorded run"},
		"runs out of order":       {edit(3, `"recorded":[[0,1],[3,4]`, `"recorded":[[3,4],[0,1]`), "decoding snapshot: frame 3: recorded run"},
		"queues not a map":        {edit(8, `{`, `[{`), "decoding snapshot: frame 8"},
		"unknown layout":          {edit(0, `"layout":"columns"`, `"layout":"columns-v9"`), `decoding snapshot: head names layout "columns-v9"`},
		"probe column short":      {editChunk(t, frames, 3, func(c *assignCols) { c.Probes = c.Probes[1:] }), "decoding snapshot: frame 3: holds 255 probes"},
		"id column long":          {editChunk(t, frames, 3, func(c *assignCols) { c.IDs = append(c.IDs, "x") }), "decoding snapshot: frame 3: holds 256 probes, 257 ids"},
		"shape column short":      {editChunk(t, frames, 3, func(c *assignCols) { c.Shape = make([]int, 255) }), "decoding snapshot: frame 3: holds 256 probes, 256 ids and 255 shape"},
		"shape index out":         {editChunk(t, frames, 3, func(c *assignCols) { c.Shape = make([]int, 256); c.Shape[7] = 1 }), "decoding snapshot: frame 3: entry 7 names task body 1 of 1"},
		"negative shape index":    {editChunk(t, frames, 3, func(c *assignCols) { c.Shape = make([]int, 256); c.Shape[0] = -1 }), "decoding snapshot: frame 3: entry 0 names task body -1 of 1"},
		"no task body":            {editChunk(t, frames, 3, func(c *assignCols) { c.Tasks = []probes.Task{} }), "decoding snapshot: frame 3: holds 256 probes, 256 ids and 0 shape"},
		"two bodies, no shape": {editChunk(t, frames, 3, func(c *assignCols) {
			c.Tasks, c.Shape = append(c.Tasks, probes.Task{Kind: probes.TaskPing, Target: "10.9.9.9"}), nil
		}), "decoding snapshot: frame 3: holds 256 probes, 256 ids and 0 shape"},
	} {
		dir := t.TempDir()
		shipDir(t, src, dir)
		if err := os.WriteFile(filepath.Join(dir, "snapshot.log"), tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if rec, err := Recover(dir, wideCfg); err == nil {
			rec.Close()
			t.Errorf("%s: recovered", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to say %q", name, err, tc.want)
		}
		// A failed recovery wrote nothing: the repaired file recovers the book.
		if err := os.WriteFile(filepath.Join(dir, "snapshot.log"), good, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := mustRecover(t, dir, wideCfg)
		if got, want := legacyState(rec), legacyState(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the intact snapshot no longer recovers the book", name)
		}
		rec.Close()
	}
}

// TestRecordedOutsideAssignments: a recorded id that is no assignment of
// its experiment cannot be an index run. No live path makes one (results
// are admitted against the experiment's task ids), a replayed record
// can; it is written by name in the head and survives.
func TestRecordedOutsideAssignments(t *testing.T) {
	dir := t.TempDir()
	cfg := lossyCfg
	cfg.StoreFlushEvery = 1 // every result sealed: the recoveries below requeue nothing
	c := mustRecover(t, dir, cfg)
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "drill", pingAssignmentsFor("p1", 5))
	if err != nil {
		t.Fatal(err)
	}
	c.leaseTasks("p1", 5)
	submitPingBatch(t, c, "p1", exp.ID, 1, 3)
	submitPingBatch(t, c, "p1", exp.ID, 4, 5)
	c.BreakJournal()
	stray, _ := json.Marshal(syncOp{ProbeID: "p1", Max: -1, Seq: 3, Refs: []resultRef{{exp.ID, "zz-stray"}}})
	appendRawRecords(t, dir, journal.Record{Seq: c.journal.Seq() + 1, Kind: opSync, Data: stray})

	rec := mustRecover(t, dir, cfg)
	if err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := legacyState(rec)
	if got := want.Recorded[exp.ID]; len(got) != 4 || got[3] != "zz-stray" {
		t.Fatalf("drill recorded %v, want three tasks and the stray id", got)
	}
	rec.BreakJournal()
	file := readSnapshotLog(t, dir)
	if !bytes.Contains(file, []byte(`"assignments":5,"recorded":["zz-stray"]}`)) || !bytes.Contains(file, []byte(`"recorded":[[1,3],[4,5]]}`)) {
		t.Fatalf("snapshot.log does not hold the stray id by name and the rest as runs: %q", file)
	}
	again := mustRecover(t, dir, cfg)
	defer again.Close()
	if got := legacyState(again); !reflect.DeepEqual(got, want) {
		t.Fatalf("book with a stray recorded id changed across its snapshot\n got %+v\nwant %+v", got, want)
	}
}

// TestFailoverShipsEverySnapshot checks the framed shape only, whatever
// its name says: a failover's copy (journal.Clone + store.Clone, what
// federation.ShipState is) of a directory with a multi-frame snapshot and
// a tail behind it recovers the book the source held. A copy of an older
// shape is refused as its source is (TestRecoverRefusesEveryOlderShape
// ships them the same way).
func TestFailoverShipsEverySnapshot(t *testing.T) {
	src := t.TempDir()
	shipDir(t, wideBook(t), src)
	c := mustRecover(t, src, wideCfg)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.Tick(1) // a tail behind the snapshot
	c.BreakJournal()
	want := legacyState(c)

	dst := t.TempDir()
	shipDir(t, src, dst)
	rec := mustRecover(t, dst, wideCfg)
	defer rec.Close()
	if got := legacyState(rec); !reflect.DeepEqual(got, want) {
		t.Errorf("failover recovered a different book\n got %+v\nwant %+v", got, want)
	}
	if d := rec.DurabilityCounters(); d["recovery_replayed"] != 1 {
		t.Errorf("failover recovered with %v", d)
	}
}

// TestEverySnapshotIsTimed: the automatic, the explicit and the shutdown
// snapshot go through one helper, so each is an observation of
// obs_journal_seconds{op="snapshot"}, each leaves a journal.snapshot span
// under a traced request, and /stats carries the size of the last one.
func TestEverySnapshotIsTimed(t *testing.T) {
	dir := t.TempDir()
	cfg := lossyCfg
	cfg.SnapshotEvery = 3
	c := mustRecover(t, dir, cfg)
	timed := func() uint64 { return c.Observability().Snapshots()[MetricJournal+`{op="snapshot"}`].Count }
	mustRegister(t, c, "p1", 36924, "RW")
	mustRegister(t, c, "p2", 36924, "RW")
	if timed() != 0 {
		t.Fatal("snapshot before the cadence")
	}
	mustRegister(t, c, "p3", 36924, "RW") // third record: automatic
	if timed() != 1 {
		t.Fatalf("automatic snapshot: %d observations, want 1", timed())
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if timed() != 2 {
		t.Fatalf("explicit snapshot: %d observations, want 2", timed())
	}
	d := c.Stats().Durability
	if size := int64(len(readSnapshotLog(t, dir))); d["snapshot_bytes"] != size || d["snapshot_frames"] != 1+1+snapTailFrames || d["snapshots_written"] != 2 {
		t.Fatalf("durability %v; snapshot.log is %d bytes in %d frames", d, size, 1+1+snapTailFrames)
	}
	reg := c.Observability()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshots()[MetricJournal+`{op="snapshot"}`].Count; got != 3 {
		t.Fatalf("shutdown snapshot: %d observations, want 3", got)
	}
	rec := mustRecover(t, dir, cfg)
	defer rec.Close()
	if got := rec.Stats().Durability; got["snapshot_bytes"] != d["snapshot_bytes"] || got["snapshot_frames"] != d["snapshot_frames"] || got["snapshots_written"] != 0 {
		t.Fatalf("durability after recovering from that snapshot: %v, wrote %v", got, d)
	}
}

// FuzzSnapshotRead feeds arbitrary bytes to recovery as a snapshot.log:
// Recover returns an error or a whole book — one that snapshots and
// recovers again to the same state — and never panics.
func FuzzSnapshotRead(f *testing.F) {
	src := f.TempDir()
	c, err := Recover(src, lossyCfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []string{"p1", "p2"} {
		if err := c.RegisterProbe(ProbeInfo{ID: id, ASN: 36924, Country: "RW"}); err != nil {
			f.Fatal(err)
		}
	}
	exp, err := c.Backend().Submit(context.Background(), SubmitRequest{RequestID: "req-1", Owner: "o", Description: "fuzz", Assignments: append(pingAssignments("p1", 3), pingAssignments("p2", 2)...)})
	if err != nil {
		f.Fatal(err)
	}
	tasks := c.leaseTasks("p1", 2)
	if _, err := c.submitResults("p1", []probes.Result{okResult(tasks[0])}); err != nil {
		f.Fatal(err)
	}
	if _, err := c.SubmitExperiment("rando", "pending", pingAssignments("p2", 1)); err != nil {
		f.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		f.Fatal(err)
	}
	c.BreakJournal()
	good := readSnapshotLog(f, src)
	frames := framelog.Frames(good)
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-5])
	f.Add(reframe(frames[:len(frames)-1]))
	f.Add(reframe(append([][]byte{bytes.Replace(frames[0], []byte(`"assignments":5`), []byte(`"assignments":4`), 1)}, frames[1:]...)))
	f.Add(reframe(append([][]byte{bytes.Replace(frames[0], []byte(`"probes":2`), []byte(`"probes":70000`), 1)}, frames[1:]...)))
	f.Add(reframe(append([][]byte{bytes.Replace(frames[0], []byte(exp.ID), []byte("exp-0002"), 1)}, frames[1:]...)))
	f.Add(reframe([][]byte{[]byte(`{"seq":1,"frames":4,"head":{"now":3,"probes":0}}`), []byte(`{}`), []byte(`{}`), []byte(`{}`), []byte(`null`)}))
	f.Add(reframe([][]byte{[]byte(`{"seq":1,"frames":0}`)}))
	// Column chunks that do not fill their range, and a head whose layout
	// this binary does not read: each is an error that writes nothing.
	for _, bad := range [][]byte{
		editChunk(f, frames, 2, func(c *assignCols) { c.IDs = c.IDs[1:] }),
		editChunk(f, frames, 2, func(c *assignCols) { c.Shape = []int{0, 0, 0, 0, 2} }),
		editChunk(f, frames, 2, func(c *assignCols) { c.Tasks = []probes.Task{} }),
		reframe(append([][]byte{bytes.Replace(frames[0], []byte(`"layout":"columns"`), []byte(`"layout":"rows"`), 1)}, frames[1:]...)),
	} {
		dir := f.TempDir()
		shipDir(f, src, dir)
		if err := os.WriteFile(filepath.Join(dir, "snapshot.log"), bad, 0o644); err != nil {
			f.Fatal(err)
		}
		before := dirImage(f, dir)
		if rec, err := Recover(dir, lossyCfg); err == nil {
			rec.Close()
			f.Fatalf("recovered from a damaged column snapshot: %q", bad)
		}
		if after := dirImage(f, dir); !reflect.DeepEqual(after, before) {
			f.Fatalf("a failed recovery from %q changed the directory", bad)
		}
		f.Add(bad)
	}

	// One worker: which goroutine decodes which frame would read as new
	// coverage to the fuzzing engine, and worker counts have their own test.
	defer par.SetDefaultWorkers(par.SetDefaultWorkers(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir, lossyCfg)
		if err != nil {
			return
		}
		want := legacyState(rec)
		if err := rec.Snapshot(); err != nil {
			// A book that restores but does not marshal (a NaN task value
			// cannot come out of JSON) would be a decode bug.
			t.Fatalf("restored book does not snapshot: %v", err)
		}
		rec.BreakJournal()
		again, err := Recover(dir, lossyCfg)
		if err != nil {
			t.Fatalf("restored book's own snapshot does not recover: %v", err)
		}
		defer again.Close()
		if got := legacyState(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("book changed across its own snapshot\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestColumnsRoundTrip: the column codec gives back what the array of
// structs it replaced gave back (json.Marshal and Unmarshal of the list),
// chunk by chunk across chunk boundaries — empty and repeated task ids,
// several task bodies, an empty experiment, markup and non-ASCII targets,
// invalid UTF-8 — writing each distinct body once, and each chunk's runs
// name exactly its recorded ids.
func TestColumnsRoundTrip(t *testing.T) {
	targets := []string{"10.0.0.1", "<a&b>", "kigali-é-🌍", "bad\xffutf8", ""}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]probes.Assignment, 1+rng.Intn(700))
		rec := map[string]bool{}
		for i := range in {
			in[i] = probes.Assignment{ProbeID: fmt.Sprintf("p%d", rng.Intn(40)), Task: probes.Task{
				Kind: probes.TaskPing, Target: targets[rng.Intn(len(targets))], Repeat: rng.Intn(3), ECS: rng.Intn(4) == 0,
			}}
			switch rng.Intn(4) {
			case 0: // left for the submission to mint
			case 1:
				in[i].Task.ID = fmt.Sprintf("dup-%d", rng.Intn(5))
			default:
				in[i].Task.ID = fmt.Sprintf("t%d", i)
			}
			if rng.Intn(2) == 0 {
				in[i].Task.Experiment = "exp-0001"
			}
			if rng.Intn(3) == 0 {
				rec[in[i].Task.ID] = true
			}
		}
		raw, _ := json.Marshal(in)
		var want []probes.Assignment
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		got := make([]probes.Assignment, len(in))
		for lo := 0; lo < len(in); lo += snapChunk {
			chunk := in[lo:min(lo+snapChunk, len(in))]
			cols, bodies := colsOf(chunk, rec), map[probes.Task]bool{}
			for _, a := range chunk {
				a.Task.ID = ""
				bodies[a.Task] = true
			}
			if len(cols.Tasks) != len(bodies) {
				t.Fatalf("seed %d: chunk at %d writes %d task bodies for its %d distinct ones", seed, lo, len(cols.Tasks), len(bodies))
			}
			p, err := json.Marshal(cols)
			if err != nil {
				t.Fatal(err)
			}
			runs, _, err := readChunk(p, got[lo:lo+len(chunk)])
			if err != nil {
				t.Fatalf("seed %d: chunk at %d: %v", seed, lo, err)
			}
			covered := map[int]bool{}
			for _, r := range runs {
				for i := r[0]; i < r[1]; i++ {
					covered[i] = true
				}
			}
			for i := range chunk {
				if covered[i] != rec[chunk[i].Task.ID] {
					t.Fatalf("seed %d: assignment %d recorded %t, its run says %t", seed, lo+i, rec[chunk[i].Task.ID], covered[i])
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %d assignments come back different from the struct layout's round trip", seed, len(in))
		}
	}
}

// dirImage is every regular file under dir by path, with its bytes, and
// every directory by path and a trailing slash.
func dirImage(t testing.TB, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			files[path+"/"] = ""
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// editChunk renders frames as a snapshot.log with frame i, a column
// chunk, decoded, edited and encoded again.
func editChunk(t testing.TB, frames [][]byte, i int, edit func(*assignCols)) []byte {
	t.Helper()
	var cols assignCols
	if err := json.Unmarshal(frames[i], &cols); err != nil {
		t.Fatal(err)
	}
	edit(&cols)
	out := append([][]byte(nil), frames...)
	out[i], _ = json.Marshal(cols)
	return reframe(out)
}
