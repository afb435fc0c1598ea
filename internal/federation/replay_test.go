package federation

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/journal"
)

// TestCoordinatorKeepsNoRecoveryView: the journal handle lives as long as
// the coordinator, and the records Open decoded alias the whole
// journal.log image, so New drops them once they are replayed.
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
	if c2.log.Snap != nil || c2.log.Records != nil {
		t.Fatalf("journal handle still holds its recovery view: snap %v, %d records", c2.log.Snap != nil, len(c2.log.Records))
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
