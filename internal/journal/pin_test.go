package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// pinBuild writes the journal directory that testdata/pin holds: three
// records, a snapshot over them, two more records, and the first half
// of a sixth frame as a crash mid-append leaves it.
func pinBuild(t *testing.T, dir string) {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	if err := l.WriteSnapshot(map[string]any{"tick": 7, "probes": []string{"kgl-01", "nbo-02"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("lease", map[string]string{"probe": "kgl-01", "task": "exp-0001-t0003"}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	l.Close()
	torn, err := EncodeFrame(Record{Seq: 6, Kind: "op", Data: json.RawMessage(`{"i":5}`)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
}

// pinView is what Open recovers from a directory, as testdata/pin/want.json
// records it.
type pinView struct {
	Seq      uint64    `json:"seq"`
	Snap     *Snapshot `json:"snap"`
	Records  []Record  `json:"records"`
	TornTail bool      `json:"torn_tail"`
}

func pinOpen(t *testing.T, dir string) []byte {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	out, err := json.MarshalIndent(pinView{Seq: l.Seq(), Snap: l.Snap, Records: l.Records, TornTail: l.TornTail}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestFormatPin holds the on-disk format to bytes written by the commit
// before internal/framelog existed (testdata/pin; never regenerate it): a
// directory written then opens to the same view now, and the same
// appends now write the same bytes.
func TestFormatPin(t *testing.T) {
	pinned := filepath.Join("testdata", "pin")
	want, err := os.ReadFile(filepath.Join(pinned, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	built, old := t.TempDir(), t.TempDir()
	pinBuild(t, built)
	for _, name := range []string{"journal.log", "snapshot.json"} {
		fixture, err := os.ReadFile(filepath.Join(pinned, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(built, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fixture) {
			t.Errorf("%s: this code writes\n%q\nthe pinned file is\n%q", name, got, fixture)
		}
		// Open truncates the torn tail, so it gets a copy.
		if err := os.WriteFile(filepath.Join(old, name), fixture, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := pinOpen(t, old); !bytes.Equal(got, want) {
		t.Errorf("pinned directory opens to\n%s\nwant\n%s", got, want)
	}
}
