package spool

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
)

// pinBuild writes the spool.log that testdata/pin holds: four results
// into a spool bounded at three (so the fourth writes an eviction ack
// for the first), a delivery ack for the second, and a fifth result.
func pinBuild(t *testing.T, dir string) {
	t.Helper()
	s := mustOpen(t, dir, Options{MaxPending: 3})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, upTo := s.DrainBatch(1)
	if err := s.AckBatch(upTo); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testResult(4)); err != nil {
		t.Fatal(err)
	}
}

// pinOpen is the pending set Open rebuilds from a directory, as
// testdata/pin/want.json records it.
func pinOpen(t *testing.T, dir string) []byte {
	t.Helper()
	s := mustOpen(t, dir, Options{MaxPending: 3})
	defer s.Close()
	results, upTo := s.DrainBatch(0)
	out, err := json.MarshalIndent(struct {
		Pending  []probes.Result `json:"pending"`
		UpTo     uint64          `json:"upto"`
		Replayed int64           `json:"spool_replayed"`
	}{results, upTo, s.Counters()["spool_replayed"]}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestFormatPin holds the on-disk format to bytes written by the commit
// before internal/framelog existed (testdata/pin; never regenerate it):
// that spool.log opens to the same pending set now, and the same calls
// now write the same bytes.
func TestFormatPin(t *testing.T) {
	pinned := filepath.Join("testdata", "pin")
	fixture, err := os.ReadFile(filepath.Join(pinned, "spool.log"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(pinned, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	built, old := t.TempDir(), t.TempDir()
	pinBuild(t, built)
	if got, err := os.ReadFile(filepath.Join(built, "spool.log")); err != nil || !bytes.Equal(got, fixture) {
		t.Errorf("this code writes (err %v)\n%q\nthe pinned file is\n%q", err, got, fixture)
	}
	if err := os.WriteFile(filepath.Join(old, "spool.log"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := pinOpen(t, old); !bytes.Equal(got, want) {
		t.Errorf("pinned spool.log opens to\n%s\nwant\n%s", got, want)
	}
}
