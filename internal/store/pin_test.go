package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

const pinSegment = "seg-0000000000000001.seg"

// pinBuild writes the one sealed segment that testdata/pin holds.
func pinBuild(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, "exp-0001", 3, 5)
}

// pinOpen is what the store reads from a directory holding the pinned
// segment — the sparse index Open loads and the records a scan decodes —
// as testdata/pin/want.json records it.
func pinOpen(t *testing.T, dir string) []byte {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	raw, err := os.ReadFile(filepath.Join(dir, pinSegment))
	if err != nil {
		t.Fatal(err)
	}
	meta, d, torn := parseSegment(raw)
	recs := d.recs
	scanned, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(struct {
		Segments int         `json:"segments"`
		Meta     SegmentMeta `json:"meta"`
		Records  []Record    `json:"records"`
		Torn     bool        `json:"torn"`
		Scanned  []Record    `json:"scanned"`
	}{s.SegmentCount(), meta, recs, torn, scanned}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestFormatPin holds the segment format to bytes written by the commit
// before internal/framelog existed (testdata/pin; never regenerate it):
// that segment opens, parses and scans to the same records now, and the
// same appends now seal the same bytes.
func TestFormatPin(t *testing.T) {
	pinned := filepath.Join("testdata", "pin")
	fixture, err := os.ReadFile(filepath.Join(pinned, pinSegment))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(pinned, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	built, old := t.TempDir(), t.TempDir()
	pinBuild(t, built)
	if got, err := os.ReadFile(filepath.Join(built, pinSegment)); err != nil || !bytes.Equal(got, fixture) {
		t.Errorf("this code writes (err %v)\n%q\nthe pinned file is\n%q", err, got, fixture)
	}
	if err := os.WriteFile(filepath.Join(old, pinSegment), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := pinOpen(t, old); !bytes.Equal(got, want) {
		t.Errorf("pinned segment opens to\n%s\nwant\n%s", got, want)
	}
}
