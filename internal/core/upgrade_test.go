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
	book, snapSeq := legacyState(c), c.log.Seq()
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
	c, _ = lossyRun(t, seqless, lossyCfg)
	makeLegacy(t, c, seqless) // no snapshot: sync records without seq

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

// TestUnknownKindIsNotAnOldOne: a record kind neither the live table nor
// Upgrade's knows fails both as unknown, not as a directory to upgrade.
func TestUnknownKindIsNotAnOldOne(t *testing.T) {
	src := t.TempDir()
	c := mustRecover(t, src, testDurCfg)
	mustRegister(t, c, "p1", 36924, "RW")
	c.BreakJournal()
	appendRawRecords(t, src, journal.Record{Seq: c.log.Seq() + 1, Kind: "no_such_kind", Data: []byte(`1`)})
	for name, boot := range map[string]func(string, DurabilityConfig) (*Controller, error){"Recover": Recover, "Upgrade": Upgrade} {
		dir := t.TempDir()
		shipDir(t, src, dir)
		_, err := boot(dir, testDurCfg)
		if err == nil || errors.Is(err, ErrNeedsUpgrade) || !strings.Contains(err.Error(), `unknown journal record kind "no_such_kind"`) {
			t.Errorf("%s: %v, want an unknown kind", name, err)
		}
	}
}

// TestUpgradeOfACurrentDirectory: Upgrade of a directory Recover reads
// (testdata/pin/columns) gives the book Recover gives, and of an empty one
// a fresh controller; either way it leaves a directory Recover reads.
func TestUpgradeOfACurrentDirectory(t *testing.T) {
	cfg := DurabilityConfig{Trusted: []string{"pin"}, LeaseTTL: 5}
	recovered, upgraded := t.TempDir(), t.TempDir()
	shipDir(t, filepath.Join("testdata", "pin", "columns"), recovered)
	shipDir(t, filepath.Join("testdata", "pin", "columns"), upgraded)
	want := mustRecover(t, recovered, cfg)
	defer want.Close()
	fresh := mustRecover(t, t.TempDir(), cfg)
	defer fresh.Close()
	for dir, want := range map[string]*Controller{upgraded: want, t.TempDir(): fresh} {
		up := mustUpgrade(t, dir, cfg)
		if got, want := legacyState(up), legacyState(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Upgrade gives\n%+v\nRecover gives\n%+v", dir, got, want)
		}
		if got, want := viewOf(up), viewOf(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Upgrade's view\n%+v\nRecover's\n%+v", dir, got, want)
		}
		up.BreakJournal()
		again := mustRecover(t, dir, cfg)
		if d := again.DurabilityCounters(); d["recovery_replayed"] != 0 || !reflect.DeepEqual(legacyState(again), legacyState(want)) {
			t.Errorf("%s: the upgraded directory recovers with %v to another book", dir, d)
		}
		again.Close()
	}
}
