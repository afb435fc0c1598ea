package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
)

// writeLegacySnapshot writes dir's snapshot.json the way binaries before
// the framed snapshot did — the envelope around the state's bytes, fast
// layout — which nothing outside tests does any more.
func writeLegacySnapshot(t *testing.T, dir string, seq uint64, state any) {
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

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustSnapshot(t *testing.T, l *Log, head any, frames ...string) int64 {
	t.Helper()
	payloads := make([][]byte, len(frames))
	for i, f := range frames {
		payloads[i] = []byte(f)
	}
	n, err := l.WriteSnapshot(head, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendN(t, l, 7, 0)
	size := mustSnapshot(t, l, map[string]string{"hello": "world"}, `[1,2]`, `{"k":"<&>"}`)
	if l.Snap != nil {
		t.Fatal("WriteSnapshot left a recovery view on the handle")
	}
	// Compaction emptied the journal; the file is what WriteSnapshot says.
	if fi, err := os.Stat(filepath.Join(dir, "journal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not compacted: %v %d", err, fi.Size())
	}
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.log")); err != nil || fi.Size() != size {
		t.Fatalf("snapshot.log: %v, %d bytes, WriteSnapshot returned %d", err, fi.Size(), size)
	}
	appendN(t, l, 2, 7)
	l.Close()

	l2 := mustOpen(t, dir)
	defer l2.Close()
	s := l2.Snap
	if s == nil || s.Seq != 7 || s.Bytes != size {
		t.Fatalf("snapshot = %+v", s)
	}
	if string(s.Head) != `{"hello":"world"}` || len(s.Frames) != 2 || string(s.Frames[0]) != `[1,2]` || string(s.Frames[1]) != `{"k":"<&>"}` {
		t.Fatalf("snapshot head %s frames %q", s.Head, s.Frames)
	}
	if len(l2.Records) != 2 || l2.Records[0].Seq != 8 || l2.Records[1].Seq != 9 {
		t.Fatalf("post-snapshot records = %+v", l2.Records)
	}
	if l2.Seq() != 9 {
		t.Fatalf("seq = %d", l2.Seq())
	}
}

func TestStaleJournalRecordsSkippableAfterSnapshotCrash(t *testing.T) {
	// Simulate a crash between snapshot rename and journal truncate: the
	// journal still holds records the snapshot covers. Replayers filter
	// on Seq <= Snap.Seq; verify the open view exposes what they need.
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendN(t, l, 3, 0)
	raw, _ := os.ReadFile(filepath.Join(dir, "journal.log"))
	mustSnapshot(t, l, map[string]int{"n": 3})
	l.Close()
	// Resurrect the pre-compaction journal bytes.
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir)
	defer l2.Close()
	if l2.Snap == nil || l2.Snap.Seq != 3 {
		t.Fatalf("snap = %+v", l2.Snap)
	}
	stale := 0
	for _, rec := range l2.Records {
		if rec.Seq <= l2.Snap.Seq {
			stale++
		}
	}
	if stale != 3 {
		t.Fatalf("stale records = %d, want 3", stale)
	}
	// New appends must not collide with covered sequence numbers.
	seq, err := l2.Append("op", nil)
	if err != nil || seq != 4 {
		t.Fatalf("append after crash window: seq=%d err=%v", seq, err)
	}
}

// TestDamagedSnapshotIsAnError: a snapshot.log is written whole, so
// anything but the exact file — a flipped byte, a dropped, added or
// half-written frame, a header counting one frame more or fewer, no bytes
// at all — fails Open; it never opens to a shorter snapshot.
func TestDamagedSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendN(t, l, 2, 0)
	mustSnapshot(t, l, map[string]int{"n": 1}, `"first"`, `"second"`, `"third"`)
	l.Close()
	path := filepath.Join(dir, "snapshot.log")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := framelog.Frames(good)
	if len(payloads) != 4 {
		t.Fatalf("snapshot.log holds %d frames, want 4", len(payloads))
	}
	reframe := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			out, _ = framelog.AppendFrame(out, p)
		}
		return out
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	lastFrame := framelog.HeaderBytes + len(payloads[3])
	for name, file := range map[string][]byte{
		"flipped byte":        flipped,
		"dropped last frame":  good[:len(good)-lastFrame],
		"torn last frame":     good[:len(good)-3],
		"extra frame":         append(append([]byte(nil), good...), reframe([]byte(`"fourth"`))...),
		"bytes behind frames": append(append([]byte(nil), good...), 0, 0, 0),
		"header one over":     reframe(bytes.Replace(payloads[0], []byte(`"frames":3`), []byte(`"frames":4`), 1), payloads[1], payloads[2], payloads[3]),
		"header one under":    reframe(bytes.Replace(payloads[0], []byte(`"frames":3`), []byte(`"frames":2`), 1), payloads[1], payloads[2], payloads[3]),
		"header not JSON":     reframe([]byte(`{"seq":`), payloads[1], payloads[2], payloads[3]),
		"empty file":          {},
	} {
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := Open(dir); err == nil {
			l.Close()
			t.Errorf("%s: snapshot accepted: %+v", name, l.Snap)
		} else if !strings.Contains(err.Error(), "corrupt snapshot") {
			t.Errorf("%s: error %v does not name the snapshot", name, err)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir)
	defer l.Close()
	if l.Snap == nil || len(l.Snap.Frames) != 3 {
		t.Fatalf("intact snapshot: %+v", l.Snap)
	}
}

// TestStraySnapshotTempIgnored: a crash between writing snapshot.log.tmp
// and renaming it leaves garbage beside a valid snapshot; Open must not
// read it, and the next WriteSnapshot replaces it.
func TestStraySnapshotTempIgnored(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendN(t, l, 2, 0)
	mustSnapshot(t, l, map[string]int{"n": 2})
	appendN(t, l, 1, 2)
	l.Close()
	tmp := filepath.Join(dir, "snapshot.log.tmp")
	if err := os.WriteFile(tmp, []byte("\x20\x00\x00\x00half a fra"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir)
	defer l2.Close()
	if l2.Snap == nil || l2.Snap.Seq != 2 || len(l2.Records) != 1 || l2.Seq() != 3 {
		t.Fatalf("stray temp changed the recovered view: snap %+v records %d seq %d", l2.Snap, len(l2.Records), l2.Seq())
	}
	mustSnapshot(t, l2, map[string]int{"n": 3})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray snapshot temp survived WriteSnapshot: %v", err)
	}
	if snap, err := loadSnapshot(dir); err != nil || snap.Seq != 3 {
		t.Fatalf("snapshot after the rewrite: %+v, %v", snap, err)
	}
}

// TestLegacySnapshotRead: Open refuses a directory that holds a
// snapshot.json, alone or beside a snapshot.log (a crash between the
// first framed snapshot's rename and the blob's removal left both).
func TestLegacySnapshotRead(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendN(t, l, 3, 0)
	l.Close()
	state := map[string]any{"a": []int{1, 2, 3}, "b": "<&> ", "c": map[string]int{"}": 1}}
	writeLegacySnapshot(t, dir, 2, state)
	if _, err := Open(dir); !errors.Is(err, ErrNeedsUpgrade) {
		t.Fatalf("Open of a directory holding snapshot.json: %v, want ErrNeedsUpgrade", err)
	}

	l = mustOpenWithout(t, dir, filepath.Join(dir, "snapshot.json"))
	mustSnapshot(t, l, map[string]int{"framed": 1}, `"frame"`)
	l.Close()
	writeLegacySnapshot(t, dir, 2, state)
	if _, err := Open(dir); !errors.Is(err, ErrNeedsUpgrade) {
		t.Fatalf("Open of a directory holding both snapshots: %v, want ErrNeedsUpgrade", err)
	}
}

// mustOpenWithout opens dir after removing one file from it.
func mustOpenWithout(t *testing.T, dir, path string) *Log {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, dir)
}

// TestCloneCopiesEverySnapshot: a failover ships whatever snapshot the
// directory holds — framed, legacy (the pinned fixture), or both — byte
// for byte; the framed copy opens to the view the source does, and Open
// refuses the other two copies as it refuses their sources.
func TestCloneCopiesEverySnapshot(t *testing.T) {
	framed := t.TempDir()
	l := mustOpen(t, framed)
	appendN(t, l, 4, 0)
	mustSnapshot(t, l, map[string]int{"n": 4}, `"a"`, `"b"`)
	appendN(t, l, 1, 4)
	l.Close()

	both := t.TempDir()
	if err := Clone(framed, both); err != nil {
		t.Fatal(err)
	}
	writeLegacySnapshot(t, both, 1, map[string]string{"stale": "blob"})

	for name, src := range map[string]string{"framed": framed, "legacy": filepath.Join("testdata", "pin"), "both": both} {
		dst := t.TempDir()
		if err := Clone(src, dst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, file := range []string{"journal.log", "snapshot.log", "snapshot.json"} {
			want, werr := os.ReadFile(filepath.Join(src, file))
			got, gerr := os.ReadFile(filepath.Join(dst, file))
			if os.IsNotExist(werr) != os.IsNotExist(gerr) || !bytes.Equal(got, want) {
				t.Errorf("%s: %s not copied as it is (%v, %v)", name, file, werr, gerr)
			}
		}
		if name != "framed" {
			if _, err := Open(dst); !errors.Is(err, ErrNeedsUpgrade) {
				t.Errorf("%s: Open of the clone: %v, want ErrNeedsUpgrade", name, err)
			}
			continue
		}
		// Open truncates a torn tail, so the source is read through a copy too.
		ref := t.TempDir()
		if err := Clone(src, ref); err != nil {
			t.Fatal(err)
		}
		if got, want := pinOpen(t, dst), pinOpen(t, ref); !bytes.Equal(got, want) || !bytes.Contains(got, []byte(`"snap": {`)) {
			t.Errorf("%s: clone opens to\n%s\nsource to\n%s", name, got, want)
		}
	}
}
