package framelog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func frame(t testing.TB, payload string) []byte {
	t.Helper()
	f, err := AppendFrame(nil, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestScan walks every way a frame stream can end.
func TestScan(t *testing.T) {
	a, b, c := frame(t, "alpha"), frame(t, "bravo"), frame(t, "reject-me")
	badCRC := frame(t, "charlie")
	badCRC[len(badCRC)-1] ^= 0x01
	cases := []struct {
		name string
		data []byte
		want []string
		good int
		torn bool
	}{
		{"empty", nil, nil, 0, false},
		{"clean EOF", cat(a, b), []string{"alpha", "bravo"}, len(a) + len(b), false},
		{"short header", cat(a, b[:HeaderBytes-1]), []string{"alpha"}, len(a), true},
		{"short payload", cat(a, b[:len(b)-1]), []string{"alpha"}, len(a), true},
		{"zero length", cat(a, make([]byte, HeaderBytes)), []string{"alpha"}, len(a), true},
		{"oversized length", cat(a, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, b), []string{"alpha"}, len(a), true},
		{"bad CRC", cat(a, badCRC, b), []string{"alpha"}, len(a), true},
		{"rejected payload", cat(a, c, b), []string{"alpha"}, len(a), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			good, torn := Scan(tc.data, func(p []byte) bool {
				if string(p) == "reject-me" {
					return false
				}
				got = append(got, string(p))
				return true
			})
			if good != int64(tc.good) || torn != tc.torn || len(got) != len(tc.want) {
				t.Fatalf("Scan = good %d torn %v payloads %q; want %d %v %q", good, torn, got, tc.good, tc.torn, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("payload %d = %q, want %q", i, got[i], tc.want[i])
				}
			}
			// Next agrees with Scan on the first frame.
			payload, rest, ok := Next(tc.data)
			if ok != (len(tc.want) > 0) || (ok && (string(payload) != tc.want[0] || len(rest) != len(tc.data)-len(a))) {
				t.Fatalf("Next = %q, %d left, ok %v", payload, len(rest), ok)
			}
		})
	}
}

func TestAppendFrameBounds(t *testing.T) {
	if _, err := AppendFrame(nil, nil); err == nil {
		t.Fatal("empty payload framed")
	}
	if _, err := AppendFrame(nil, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload framed")
	}
}

// collect is an accept callback that keeps every payload.
func collect(into *[]string) func([][]byte) int {
	return func(payloads [][]byte) int {
		for _, p := range payloads {
			*into = append(*into, string(p))
		}
		return len(payloads)
	}
}

func mustOpen(t *testing.T, path string, into *[]string) (*Log, bool) {
	t.Helper()
	l, torn, err := Open(path, collect(into))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, torn
}

// liveFrames reads the file of a log that may still be open: its good
// frames, and whether everything behind them is the zeros of an
// allocated tail.
func liveFrames(t *testing.T, path string) (frames []byte, zeroTail bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	good := Span(Frames(raw))
	return raw[:good], len(bytes.Trim(raw[good:], "\x00")) == 0
}

// TestOpenTruncatesToLastAcceptedFrame walks each way a crash can leave
// a log once. Open hands over the good frames; an all-zero remainder is
// the log's allocation (kept, not torn), anything else is a torn tail
// (truncated); either way the next append extends a valid stream and
// Close leaves exactly the frames, byte for byte what an append-mode
// writer leaves.
func TestOpenTruncatesToLastAcceptedFrame(t *testing.T) {
	a, b := frame(t, "alpha"), frame(t, "bravo")
	garbage, zeros := []byte{0x13, 0x37, 0xde}, make([]byte, growChunk)
	type image struct {
		name string
		tail []byte
		torn bool
	}
	cases := []image{
		{"clean EOF", nil, false},
		{"garbage", garbage, true},
		{"half a frame at EOF", b[:len(b)/2], true},
		{"zero tail", zeros, false},
		{"one zero byte", zeros[:1], false},
		{"garbage then zeros", cat(garbage, zeros), true},
		{"zeros then garbage", cat(zeros[:100], garbage), true},
		// A grow whose size change reached the disk before any of its
		// bytes, and one whose later page landed without the earlier.
		{"grow, size only", cat(zeros[:len(b)], zeros), false},
		{"grow, frame's end only", cat(zeros[:len(b)/2], b[len(b)/2:], zeros), true},
	}
	// A frame torn in place: the write stopped at cut, and what is behind
	// the cut is the allocation's zeros, not the end of the file.
	for cut := 1; cut < len(b); cut++ {
		cases = append(cases, image{fmt.Sprintf("torn in place at %d", cut), cat(b[:cut], zeros[:len(b)-cut+100]), true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			if err := os.WriteFile(path, cat(a, tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []string
			l, torn := mustOpen(t, path, &got)
			if torn != tc.torn || len(got) != 1 || got[0] != "alpha" {
				t.Fatalf("torn %v payloads %q, want torn %v and the one good frame", torn, got, tc.torn)
			}
			want := len(a)
			if !tc.torn {
				want += len(tc.tail) // an allocation is kept, not cut and grown again
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(want) {
				t.Fatalf("after Open the file has %d bytes, want %d (%v)", fi.Size(), want, err)
			}
			if err := l.Write(b); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if frames, zeroTail := liveFrames(t, path); !bytes.Equal(frames, cat(a, b)) || !zeroTail {
				t.Fatalf("open log holds frames %q (zero tail %v), want the two frames and zeros", frames, zeroTail)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if raw, _ := os.ReadFile(path); !bytes.Equal(raw, cat(a, b)) {
				t.Fatalf("closed file is %q, want exactly the two frames", raw)
			}
		})
	}
}

// TestGrowsOncePerChunk: the file's size changes when a frame does not
// fit in what the log owns, by the frame plus one chunk, and OnGrow
// counts exactly those writes; every other append lands in place.
func TestGrowsOncePerChunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	var got []string
	l, _ := mustOpen(t, path, &got)
	grows, syncs := 0, 0
	l.OnGrow = func() { grows++ }
	l.WrapSync = func(sync func() error) error { syncs++; return sync() }
	rec := frame(t, strings.Repeat("r", 1000-HeaderBytes))
	var want []byte
	size, wantGrows := int64(0), 0
	for i := 0; i < 3*growChunk/len(rec); i++ {
		if int64(len(want)+len(rec)) > size {
			size = int64(len(want) + len(rec) + growChunk)
			wantGrows++
		}
		want = append(want, rec...)
		if err := l.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != size || grows != wantGrows {
			t.Fatalf("after %d appends: %d bytes and %d grows, want %d and %d (%v)", i+1, fi.Size(), grows, size, wantGrows, err)
		}
	}
	if wantGrows != 3 || syncs != len(want)/len(rec) {
		t.Fatalf("%d grows, %d syncs for %d appends", wantGrows, syncs, len(want)/len(rec))
	}
	// A frame larger than a chunk is one grow like any other.
	big := frame(t, strings.Repeat("B", 2*growChunk))
	if err := l.Write(big); err != nil || grows != 4 {
		t.Fatalf("big frame: %v, %d grows", err, grows)
	}
	// Emptying the log syncs through the same hook and gives the space back.
	if err := l.Replace(nil); err != nil || syncs != len(want)/len(rec)+1 {
		t.Fatalf("Replace(nil): %v, %d syncs", err, syncs)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("emptied log has %d bytes (%v)", fi.Size(), err)
	}
	if err := l.Write(rec); err != nil || grows != 5 {
		t.Fatalf("append to the emptied log: %v, %d grows", err, grows)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, rec) {
		t.Fatalf("closed file has %d bytes, want the one %d-byte frame", len(raw), len(rec))
	}
}

// TestOpenCutsAfterTheFramesTheOwnerTakes: the owner sees every good
// frame's payload in one call, and good frames behind the ones it takes
// are truncated like a torn tail — also when the file ends in an
// allocation's zeros: only zeros right behind the frames taken are kept.
func TestOpenCutsAfterTheFramesTheOwnerTakes(t *testing.T) {
	a, b, c := frame(t, "alpha"), frame(t, "bravo"), frame(t, "charlie")
	for take, want := range [][]byte{nil, a, cat(a, b), cat(a, b, c), nil, a, cat(a, b)} {
		tail := []byte{0x13, 0x37}
		if take > 3 {
			take, tail = take-4, make([]byte, 100)
		}
		path := filepath.Join(t.TempDir(), "x.log")
		if err := os.WriteFile(path, cat(a, b, c, tail), 0o644); err != nil {
			t.Fatal(err)
		}
		l, torn, err := Open(path, func(payloads [][]byte) int {
			if len(payloads) != 3 || string(payloads[2]) != "charlie" || Span(payloads) != int64(len(cat(a, b, c))) {
				t.Errorf("accept saw %q", payloads)
			}
			return take
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if raw, _ := os.ReadFile(path); !torn || !bytes.Equal(raw, want) {
			t.Fatalf("taking %d frames: torn %v, file %q, want %q", take, torn, raw, want)
		}
	}
}

func TestReplace(t *testing.T) {
	a, b, c := frame(t, "alpha"), frame(t, "bravo"), frame(t, "charlie")
	for _, content := range [][]byte{nil, b} {
		path := filepath.Join(t.TempDir(), "x.log")
		var got []string
		l, _ := mustOpen(t, path, &got)
		if err := l.Write(a); err != nil {
			t.Fatal(err)
		}
		if err := l.Replace(content); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, content) {
			t.Fatalf("after Replace(%q) the file is %q", content, raw)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("Replace(%q) left a temp file: %v", content, err)
		}
		// The log appends after the new content.
		if err := l.Write(c); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if frames, zeroTail := liveFrames(t, path); !bytes.Equal(frames, cat(content, c)) || !zeroTail {
			t.Fatalf("append after Replace(%q): frames %q, zero tail %v", content, frames, zeroTail)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, cat(content, c)) {
			t.Fatalf("closed after Replace(%q): file is %q", content, raw)
		}
	}
}

// TestWriteFileAtomicIgnoresStrayTemp: a garbage path.tmp left by a
// crash never shows through — readers see the old content or the new.
func TestWriteFileAtomicIgnoresStrayTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	stray := func() {
		if err := os.WriteFile(path+".tmp", []byte("half-written garbage, longer than any content"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func() string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if err := WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	stray() // a crash before the rename: the old content stands
	if got := read(); got != "old" {
		t.Fatalf("stray temp showed through: %q", got)
	}
	if err := WriteFileAtomic(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "new" {
		t.Fatalf("content after write over a stray temp: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the rename: %v", err)
	}
	stray()
	if got := read(); got != "new" {
		t.Fatalf("stray temp showed through: %q", got)
	}
}

// TestFailStop: after one failure every Write, Sync and Replace returns
// the same error wrapping ErrStopped, and nothing more reaches the file.
func TestFailStop(t *testing.T) {
	a, b := frame(t, "alpha"), frame(t, "bravo")
	injected := errors.New("injected EIO")
	failOnce := func(l *Log) {
		l.WrapSync = func(sync func() error) error {
			l.WrapSync = nil
			return injected
		}
	}
	cases := []struct {
		name string
		fail func(l *Log) error
	}{
		{"sync", func(l *Log) error { failOnce(l); return l.Sync() }},
		// A descriptor closed underneath the log fails the next write
		// or truncate the way a dead disk would.
		{"write", func(l *Log) error { l.f.Close(); return l.Write(b) }},
		{"grow", func(l *Log) error { l.f.Close(); return l.Write(frame(t, strings.Repeat("g", growChunk))) }},
		{"replace", func(l *Log) error { l.f.Close(); return l.Replace(nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			var got []string
			l, _ := mustOpen(t, path, &got)
			if err := l.Write(a); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			before, _ := os.ReadFile(path)
			first := tc.fail(l)
			if !errors.Is(first, ErrStopped) {
				t.Fatalf("failure = %v, want one wrapping ErrStopped", first)
			}
			if tc.name == "sync" && !errors.Is(first, injected) {
				t.Fatalf("failure %v lost its cause", first)
			}
			for name, err := range map[string]error{
				"Write": l.Write(b), "Sync": l.Sync(), "Replace": l.Replace(b), "Err": l.Err(),
			} {
				if err != first {
					t.Fatalf("%s after the failure = %v, want the sticky %v", name, err, first)
				}
			}
			// Close included: a stopped log does not touch the file again.
			l.Close()
			if raw, _ := os.ReadFile(path); !bytes.Equal(raw, before) || !bytes.Equal(raw[:len(a)], a) {
				t.Fatalf("a stopped log changed the file: %d bytes, were %d", len(raw), len(before))
			}
			// Reopening is the way forward.
			got = nil
			l2, torn := mustOpen(t, path, &got)
			if torn || len(got) != 1 || l2.Write(b) != nil || l2.Sync() != nil {
				t.Fatalf("reopen: torn %v payloads %q err %v", torn, got, l2.Err())
			}
		})
	}
}

func TestClosedLog(t *testing.T) {
	var got []string
	l, _ := mustOpen(t, filepath.Join(t.TempDir(), "x.log"), &got)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Write(frame(t, "alpha")); err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("Write on a closed log = %v, want a plain closed error", err)
	}
}

func TestReadFirst(t *testing.T) {
	a, b := frame(t, "alpha"), frame(t, "bravo")
	bad := append([]byte(nil), a...)
	bad[len(bad)-1] ^= 0x01
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"two frames", cat(a, b), "alpha"},
		{"short header", a[:3], ""},
		{"zero length", make([]byte, HeaderBytes), ""},
		{"short payload", a[:len(a)-1], ""},
		{"bad CRC", bad, ""},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "seg")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFirst(path)
		if (err == nil) != (tc.want != "") || string(got) != tc.want {
			t.Errorf("%s: ReadFirst = %q, %v", tc.name, got, err)
		}
	}
	if _, err := ReadFirst(filepath.Join(t.TempDir(), "missing")); !os.IsNotExist(err) {
		t.Errorf("missing file: %v", err)
	}
}

func TestCopyFileSync(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	if err := CopyFileSync(src, dst); !os.IsNotExist(err) {
		t.Fatalf("missing source: %v, want a not-exist error", err)
	}
	if err := os.WriteFile(src, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, []byte("something longer that must not survive"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CopyFileSync(src, dst); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(dst); string(raw) != "payload" {
		t.Fatalf("copy = %q", raw)
	}
}
