package federation

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/journal"
)

// TestCoordinatorKeepsNoRecoveryView: New replays each journaled record
// once. That the journal then drops its recovery view, which aliases the
// whole journal.log image, is internal/journal's
// TestRebuildDropsTheRecoveryView.
func TestCoordinatorKeepsNoRecoveryView(t *testing.T) {
	dir := t.TempDir()
	c1, _ := newHarness(t, 3, dir, testConfig())
	pumpResults(t, c1, testProbes(6), 1)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := New(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Counters()["fed_recovery_replayed"]; got != 4 {
		t.Fatalf("replayed %d records, want 3 shard_add and 1 fed_submit", got)
	}
}

// TestCoordinatorReplayTable: every kind the coordinator journals has its
// entry, and a journal holding a kind without one (or data that is not
// the kind's op) fails New by kind and seq instead of being skipped.
func TestCoordinatorReplayTable(t *testing.T) {
	for _, kind := range []string{opShardAdd, opShardFailover, opFedSubmit} {
		if replayOps[kind] == nil {
			t.Errorf("%s has no entry in replayOps", kind)
		}
	}
	if len(replayOps) != 3 {
		t.Errorf("replayOps has %d entries for 3 op constants", len(replayOps))
	}
	for _, tc := range []struct {
		rec  journal.Record
		want string
	}{
		{journal.Record{Seq: 2, Kind: "no_such_kind", Data: []byte(`1`)}, `federation: unknown journal record kind "no_such_kind" (seq 2)`},
		{journal.Record{Seq: 2, Kind: opShardFailover, Data: []byte(`[]`)}, "federation: replaying shard_failover record seq 2: json: cannot unmarshal"},
	} {
		dir := t.TempDir()
		var file []byte
		for _, rec := range []journal.Record{{Seq: 1, Kind: opShardAdd, Data: []byte(`{"id":"shard-0"}`)}, tc.rec} {
			frame, err := journal.EncodeFrame(rec)
			if err != nil {
				t.Fatal(err)
			}
			file = append(file, frame...)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.log"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(dir, testConfig()); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("New over a %s record: error %v, want %q…", tc.rec.Kind, err, tc.want)
		}
	}
}

// TestCoordinatorRefusesOlderDirectory: a coordinator directory holding a
// snapshot.json, which only an older binary wrote, fails New with
// journal.ErrNeedsUpgrade, names no reader that would take it, and is left
// byte for byte as it was.
func TestCoordinatorRefusesOlderDirectory(t *testing.T) {
	dir := t.TempDir()
	c1, _ := newHarness(t, 2, dir, testConfig())
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(`{"seq":1,"crc":0,"state":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	image := func() map[string]string {
		files := map[string]string{}
		if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := image()
	c2, err := New(dir, testConfig())
	if !errors.Is(err, journal.ErrNeedsUpgrade) || strings.Contains(err.Error(), "Upgrade") {
		if err == nil {
			c2.Close()
		}
		t.Fatalf("New of a directory holding snapshot.json: %v, want ErrNeedsUpgrade naming no upgrader", err)
	}
	if after := image(); !reflect.DeepEqual(after, before) {
		t.Error("a refused New changed the directory")
	}
}

// TestCoordinatorRefusesAControllerDirectory: a closed controller's
// directory — its snapshot written, journal.log compacted to nothing — is
// not a coordinator's, which writes no snapshot and would replay the empty
// tail alone. New refuses it and changes no byte of it; opened, the next
// AddShard appended a shard_add behind the controller's snapshot, which the
// controller's next Recover failed on.
func TestCoordinatorRefusesAControllerDirectory(t *testing.T) {
	dir := t.TempDir()
	ctrl, err := core.Recover(dir, core.DurabilityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterProbe(testProbes(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	image := func() map[string]string {
		files := map[string]string{}
		if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := image()
	if c, err := New(dir, testConfig()); err == nil {
		err = c.AddShard("shard-0", nil)
		c.Close()
		t.Fatalf("New opened a controller's directory (AddShard: %v)", err)
	}
	if after := image(); !reflect.DeepEqual(after, before) {
		t.Error("a refused New changed the directory")
	}
	rec, err := core.Recover(dir, core.DurabilityConfig{})
	if err != nil {
		t.Fatalf("the controller's directory no longer recovers: %v", err)
	}
	rec.Close()
}

// TestCoordinatorJournalIsObservable: a durable coordinator's appends are
// on its registry as a controller's are, timed and counted.
func TestCoordinatorJournalIsObservable(t *testing.T) {
	c, _ := newHarness(t, 3, t.TempDir(), testConfig())
	ps := testProbes(4)
	for _, p := range ps {
		if err := c.Register(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := submit(c, "req-1", "observed", testAssignments(ps, 1)); err != nil {
		t.Fatal(err)
	}
	reg := c.Observability()
	if got := reg.Snapshots()[journal.MetricSeconds+`{op="append"}`].Count; got != 4 {
		t.Errorf("obs_journal_seconds{op=\"append\"} has %d observations, want 3 shard_add and 1 fed_submit", got)
	}
	if got := reg.Counters(journal.MetricEvents).Get("journal_records_appended"); got != 4 {
		t.Errorf("journal_records_appended = %d, want 4", got)
	}
}

// TestReplayedFedBookIsTheLiveOne: the book a coordinator replays from its
// journal is the one it kept live — three shards added, one failed over,
// fresh submissions and a retried one — with no normalizing step.
func TestReplayedFedBookIsTheLiveOne(t *testing.T) {
	root := t.TempDir()
	l, err := BootLocal(root, 3, durableShards, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := testProbes(6)
	for _, p := range ps {
		if err := l.Register(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FailoverShard("shard-2"); err != nil {
		t.Fatal(err)
	}
	for _, req := range []string{"req-1", "", "req-2", "req-1"} {
		if _, err := submit(l.Coordinator, req, "replayed", testAssignments(ps, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Counters()["fed_submit_dedup"]; got != 1 {
		t.Fatalf("fed_submit_dedup = %d, want the one retry", got)
	}
	live := l.book
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := New(filepath.Join(root, "coordinator"), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !reflect.DeepEqual(c.book, live) {
		t.Errorf("replayed book\n %+v\nwant the live one\n %+v", c.book, live)
	}
}
