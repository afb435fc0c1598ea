package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/journal"
)

// TestRecoverRefusesEveryOlderShape: Recover given a directory an older
// binary wrote — a blob snapshot, a blob beside a framed one, a framed
// snapshot whose head has no layout (testdata/pin/framed), retired kinds
// and seq-less results (testdata/pin), seq-less sync records alone —
// returns ErrNeedsUpgrade and leaves every byte of it as it was.
func TestRecoverRefusesEveryOlderShape(t *testing.T) {
	// A current directory: a snapshot over a lost memtable, a tick behind it.
	current := t.TempDir()
	c, _ := lossyRun(t, current, lossyCfg)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	book, snapSeq := legacyState(c), c.journal.Seq()
	c.Tick(1)
	c.BreakJournal()

	blob, both, seqless := t.TempDir(), t.TempDir(), t.TempDir()
	shipDir(t, current, blob)
	if err := os.Remove(filepath.Join(blob, "snapshot.log")); err != nil {
		t.Fatal(err)
	}
	writeLegacySnapshot(t, blob, snapSeq, book)
	shipDir(t, current, both)
	writeLegacySnapshot(t, both, 1, persistState{})
	lossyRun(t, seqless, lossyCfg)
	makeLegacy(t, seqless) // no snapshot: sync records without seq

	for name, src := range map[string]string{
		"blob":      blob,
		"both":      both,
		"no layout": filepath.Join("testdata", "pin", "framed"),
		"pin":       filepath.Join("testdata", "pin"),
		"seq-less":  seqless,
	} {
		dir := t.TempDir()
		shipDir(t, src, dir)
		before := dirImage(t, dir)
		if rec, err := Recover(dir, DurabilityConfig{Trusted: []string{"pin"}, LeaseTTL: 5}); !errors.Is(err, ErrNeedsUpgrade) {
			if err == nil {
				rec.Close()
			}
			t.Errorf("%s: Recover returned %v, want ErrNeedsUpgrade", name, err)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a refused recovery changed the directory", name)
		}
	}
}

// TestRefusedKindLeavesTheDirectory: a directory whose journal holds a
// kind the controller does not replay — a coordinator's — is refused by
// that kind before the results store is opened, so the refusal creates
// nothing in it.
func TestRefusedKindLeavesTheDirectory(t *testing.T) {
	dir := t.TempDir()
	frame, err := journal.EncodeFrame(journal.Record{Seq: 1, Kind: "shard_add", Data: []byte(`{"id":"shard-0"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	if _, err := Recover(dir, testDurCfg); err == nil || err.Error() != `core: unknown journal record kind "shard_add" (seq 1)` {
		t.Errorf("Recover over a coordinator's journal: %v, want its shard_add refused", err)
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused recovery changed the directory:\n got %v\nwant %v", after, before)
	}
}

// TestUnknownKindIsNotAnOldOne: a record kind the replay table does not
// know fails as unknown, not as a directory an older binary wrote.
func TestUnknownKindIsNotAnOldOne(t *testing.T) {
	dir := t.TempDir()
	c := mustRecover(t, dir, testDurCfg)
	mustRegister(t, c, "p1", 36924, "RW")
	c.BreakJournal()
	appendRawRecords(t, dir, journal.Record{Seq: c.journal.Seq() + 1, Kind: "no_such_kind", Data: []byte(`1`)})
	_, err := Recover(dir, testDurCfg)
	if err == nil || errors.Is(err, ErrNeedsUpgrade) || !strings.Contains(err.Error(), `unknown journal record kind "no_such_kind"`) {
		t.Errorf("Recover: %v, want an unknown kind", err)
	}
}
