package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// pinBuild writes the journal directory that the pinned fixtures hold:
// three records, a snapshot over them, two more records, and the first
// half of a sixth frame as a crash mid-append leaves it. testdata/pin's
// snapshot is the legacy blob of the commit that wrote it, so of that
// directory this code only writes the same journal.log;
// testdata/pin/framed is what it writes whole.
func pinBuild(t *testing.T, dir string) {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	head := map[string]any{"tick": 7, "probes": 2}
	if _, err := l.WriteSnapshot(head, [][]byte{[]byte(`["kgl-01","nbo-02"]`), []byte(`{"queued":["exp-0001-t0003"]}`)}); err != nil {
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

// pinView is what Open recovers from a directory, as a fixture's
// want.json records it: the snapshot's seq, head and frames.
type pinView struct {
	Seq      uint64   `json:"seq"`
	Snap     *pinSnap `json:"snap"`
	Records  []Record `json:"records"`
	TornTail bool     `json:"torn_tail"`
}

type pinSnap struct {
	Seq    uint64            `json:"seq"`
	Head   json.RawMessage   `json:"head,omitempty"`
	Frames []json.RawMessage `json:"frames,omitempty"`
}

func pinOpen(t *testing.T, dir string) []byte {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	view := pinView{Seq: l.Seq(), Records: l.Records, TornTail: l.TornTail}
	if s := l.Snap; s != nil {
		view.Snap = &pinSnap{Seq: s.Seq, Head: s.Head}
		for _, f := range s.Frames {
			view.Snap.Frames = append(view.Snap.Frames, f)
		}
	}
	out, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestFormatPin holds the on-disk format to committed bytes (never
// regenerate them): testdata/pin, written by the commit before
// internal/framelog existed, with a legacy snapshot.json that Open
// refuses; and testdata/pin/framed, written by the commit that framed
// the snapshot, which opens to the same view now. The same calls now
// write the same bytes — of the files this code still writes.
func TestFormatPin(t *testing.T) {
	for _, pin := range []struct {
		dir           string
		written, read []string // files this code writes the same; files Open is given
		refused       bool     // whether Open refuses the directory
	}{
		{filepath.Join("testdata", "pin"), []string{"journal.log"}, []string{"journal.log", "snapshot.json"}, true},
		{filepath.Join("testdata", "pin", "framed"), []string{"journal.log", "snapshot.log"}, []string{"journal.log", "snapshot.log"}, false},
	} {
		built, old := t.TempDir(), t.TempDir()
		pinBuild(t, built)
		for _, name := range pin.written {
			fixture, err := os.ReadFile(filepath.Join(pin.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(built, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fixture) {
				t.Errorf("%s/%s: this code writes\n%q\nthe pinned file is\n%q", pin.dir, name, got, fixture)
			}
		}
		// Open truncates the torn tail, so it gets a copy.
		for _, name := range pin.read {
			fixture, err := os.ReadFile(filepath.Join(pin.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(old, name), fixture, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if pin.refused {
			if l, err := Open(old); !errors.Is(err, ErrNeedsUpgrade) {
				if err == nil {
					l.Close()
				}
				t.Errorf("%s: Open returned %v, want ErrNeedsUpgrade", pin.dir, err)
			}
			continue
		}
		want, err := os.ReadFile(filepath.Join(pin.dir, "want.json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := pinOpen(t, old); !bytes.Equal(got, want) {
			t.Errorf("%s opens to\n%s\nwant\n%s", pin.dir, got, want)
		}
	}
}
