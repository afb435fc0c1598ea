package framelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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

// TestOpenTruncatesToLastAcceptedFrame: whatever follows the last
// accepted frame is cut, and appends extend a valid stream.
func TestOpenTruncatesToLastAcceptedFrame(t *testing.T) {
	a, b := frame(t, "alpha"), frame(t, "bravo")
	for _, tail := range [][]byte{nil, {0x13, 0x37, 0xde}, b[:len(b)/2]} {
		path := filepath.Join(t.TempDir(), "x.log")
		if err := os.WriteFile(path, cat(a, tail), 0o644); err != nil {
			t.Fatal(err)
		}
		var got []string
		l, torn := mustOpen(t, path, &got)
		if torn != (tail != nil) || len(got) != 1 {
			t.Fatalf("tail %x: torn %v payloads %q", tail, torn, got)
		}
		if err := l.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, cat(a, b)) {
			t.Fatalf("tail %x: file is %q, want the two frames", tail, raw)
		}
	}
}

// TestOpenCutsAfterTheFramesTheOwnerTakes: the owner sees every good
// frame's payload in one call, and good frames behind the ones it takes
// are truncated like a torn tail.
func TestOpenCutsAfterTheFramesTheOwnerTakes(t *testing.T) {
	a, b, c := frame(t, "alpha"), frame(t, "bravo"), frame(t, "charlie")
	for take, want := range [][]byte{nil, a, cat(a, b), cat(a, b, c)} {
		path := filepath.Join(t.TempDir(), "x.log")
		if err := os.WriteFile(path, cat(a, b, c, []byte{0x13, 0x37}), 0o644); err != nil {
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
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, cat(content, c)) {
			t.Fatalf("append after Replace(%q): file is %q", content, raw)
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
			if raw, _ := os.ReadFile(path); !bytes.Equal(raw, a) {
				t.Fatalf("a stopped log changed the file: %q", raw)
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
