package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
)

func appendN(t *testing.T, l *Log, n int, offset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq, err := l.Append("op", map[string]int{"i": offset + i})
		if err != nil {
			t.Fatal(err)
		}
		if seq == 0 {
			t.Fatal("Append returned seq 0")
		}
	}
}

func TestAppendAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Snap != nil || len(l.Records) != 0 || l.TornTail {
		t.Fatalf("fresh dir not empty: %+v", l)
	}
	appendN(t, l, 5, 0)
	if l.Seq() != 5 {
		t.Fatalf("seq = %d", l.Seq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(l2.Records) != 5 || l2.TornTail {
		t.Fatalf("reopen: %d records, torn=%v", len(l2.Records), l2.TornTail)
	}
	for i, rec := range l2.Records {
		if rec.Seq != uint64(i+1) || rec.Kind != "op" {
			t.Fatalf("record %d = %+v", i, rec)
		}
		var m map[string]int
		if err := json.Unmarshal(rec.Data, &m); err != nil || m["i"] != i {
			t.Fatalf("record %d data = %s", i, rec.Data)
		}
	}
	// Appends continue the sequence.
	appendN(t, l2, 1, 5)
	if l2.Seq() != 6 {
		t.Fatalf("seq after reopen append = %d", l2.Seq())
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	l.Close()

	path := filepath.Join(dir, "journal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the last frame: a torn write of a record that was never
	// acknowledged.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.Records) != 2 || !l2.TornTail {
		t.Fatalf("records=%d torn=%v", len(l2.Records), l2.TornTail)
	}
	// The torn tail was truncated in place, and appends resume cleanly.
	appendN(t, l2, 1, 9)
	if l2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3 (torn record's number reused)", l2.Seq())
	}
	l2.Close()

	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(l3.Records) != 3 || l3.TornTail {
		t.Fatalf("after repair: records=%d torn=%v", len(l3.Records), l3.TornTail)
	}
}

func TestBitFlipStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 0)
	l.Close()

	path := filepath.Join(dir, "journal.log")
	raw, _ := os.ReadFile(path)
	// Flip one bit mid-file (inside some frame's payload).
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, good, torn := ReadAll(bytes.NewReader(raw))
	if !torn {
		t.Fatal("bit flip not detected")
	}
	if len(recs) >= 4 {
		t.Fatalf("replay did not stop at the flipped frame: %d records", len(recs))
	}
	if good > int64(len(raw)) {
		t.Fatalf("goodBytes %d beyond input", good)
	}
	// Open repairs by truncating at the flip point.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(l2.Records) != len(recs) || !l2.TornTail {
		t.Fatalf("open after flip: records=%d torn=%v", len(l2.Records), l2.TornTail)
	}
}

func TestReadAllGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // oversized length prefix
		bytes.Repeat([]byte{0x00}, 64),
		[]byte("not a journal at all, just prose"),
	}
	for i, in := range cases {
		recs, good, _ := ReadAll(bytes.NewReader(in))
		if len(recs) != 0 {
			t.Fatalf("case %d: decoded %d records from garbage", i, len(recs))
		}
		if good != 0 && in != nil {
			t.Fatalf("case %d: goodBytes = %d", i, good)
		}
	}
}

// TestFailedSyncStopsTheLog is the fail-stop invariant: after one failed
// fsync nothing more is written (a later Append would reuse the failed
// frame's sequence number, and replay would truncate it — acknowledged —
// as a torn tail), and a reopen recovers every acknowledged record.
func TestFailedSyncStopsTheLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 0) // acknowledged: seq 1, 2
	failures := 1
	l.WrapSync = func(sync func() error) error {
		if failures > 0 {
			failures--
			return errors.New("injected EIO")
		}
		return sync()
	}
	if _, err := l.Append("op", map[string]int{"i": 2}); err == nil {
		t.Fatal("Append with a failing fsync reported success")
	}
	_, stopped := l.Append("op", map[string]int{"i": 3})
	if stopped == nil {
		t.Fatal("Append after a failed fsync succeeded: the log must fail-stop")
	}
	if _, err := l.WriteSnapshot(map[string]int{}, nil); err == nil || err.Error() != stopped.Error() {
		t.Fatalf("WriteSnapshot after a failed fsync: %v, want the sticky %v", err, stopped)
	}
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The unacknowledged frame may or may not have survived; the two
	// acknowledged ones must, and no sequence number may repeat.
	if n := len(l2.Records); l2.TornTail || n < 2 || n > 3 {
		t.Fatalf("reopen: %d records, torn=%v", n, l2.TornTail)
	}
	for i, rec := range l2.Records {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	// Reopened, the log appends again, past whatever survived.
	seq, err := l2.Append("op", map[string]int{"i": 4})
	if err != nil || seq != l2.Records[len(l2.Records)-1].Seq+1 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
	l2.Close()
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.TornTail || l3.Records[len(l3.Records)-1].Seq != seq {
		t.Fatalf("acknowledged record lost: torn=%v last=%+v want seq %d", l3.TornTail, l3.Records[len(l3.Records)-1], seq)
	}
}

// TestEncodeOp: the frame Append assembles around an op's marshalled
// bytes is the frame json.Marshal renders for the Record — for every
// record of the pinned fixtures (the journal's, the controller's, the
// spool's; never regenerated), and for kinds and data that need escaping.
func TestEncodeOp(t *testing.T) {
	recs := []Record{
		{Seq: 1, Kind: "tick", Data: json.RawMessage(`null`)},
		{Seq: 1 << 63, Kind: `a"b\c`, Data: json.RawMessage(`{"k":[1,2.5,"x"]}`)},
		{Seq: 2, Kind: "<é&> \x01", Data: json.RawMessage(`"<é&>"`)},
		{Seq: 3, Kind: "", Data: json.RawMessage(`0`)},
	}
	for _, fixture := range []string{"testdata/pin/journal.log", "../core/testdata/pin/journal.log", "../spool/testdata/pin/spool.log"} {
		raw, err := os.ReadFile(filepath.FromSlash(fixture))
		if err != nil {
			t.Fatal(err)
		}
		pinned := DecodeRecords(framelog.Frames(raw))
		if len(pinned) < 2 {
			t.Fatalf("%s holds %d records", fixture, len(pinned))
		}
		recs = append(recs, pinned...)
	}
	kinds := map[string]bool{}
	for _, rec := range recs {
		kinds[rec.Kind] = true
		var data any
		if err := json.Unmarshal(rec.Data, &data); err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(Record{Seq: rec.Seq, Kind: rec.Kind, Data: rec.Data})
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeFrame(rec)
		if err != nil || !bytes.Equal(want[framelog.HeaderBytes:], payload) {
			t.Fatalf("EncodeFrame(%+v) = %q, %v", rec, want, err)
		}
		// Marshalled from its bytes (what a replay hands back) and from a
		// decoded value whose encoding is those bytes.
		for _, data := range []any{rec.Data, data} {
			if raw, _ := json.Marshal(data); !bytes.Equal(raw, rec.Data) {
				continue // the decoded value re-encodes differently (key order, number form)
			}
			if got, err := EncodeOp(rec.Seq, rec.Kind, data); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("EncodeOp(%d, %q, %T) = %q, %v\nwant %q", rec.Seq, rec.Kind, data, got, err, want)
			}
		}
	}
	if len(kinds) < 10 {
		t.Fatalf("the fixtures hold only the kinds %v", kinds)
	}
	if _, err := EncodeOp(1, "op", func() {}); err == nil {
		t.Fatal("EncodeOp framed a value that does not marshal")
	}
}

// TestCrashImageKeepsAllocatedTail: a journal.log copied from under a
// live writer (what a crash, or a failover's Clone, leaves) ends in the
// zeros the log had allocated. Open reads every acknowledged record, finds
// no torn tail, and appends into the same space; a frame torn in place in
// front of those zeros is cut like any torn tail.
func TestCrashImageKeepsAllocatedTail(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3, 0)
	for _, tornFrame := range []bool{false, true} {
		dst := t.TempDir()
		if err := Clone(src, dst); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dst, logName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames := framelog.Span(framelog.Frames(raw))
		if frames == 0 || frames >= int64(len(raw)) || len(bytes.Trim(raw[frames:], "\x00")) != 0 {
			t.Fatalf("crash image: %d bytes of frames in a %d-byte file, want frames and a zero tail", frames, len(raw))
		}
		if tornFrame {
			frame, _ := EncodeOp(4, "op", map[string]int{"i": 3})
			copy(raw[frames:], frame[:len(frame)-2])
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l2, err := Open(dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(l2.Records) != 3 || l2.TornTail != tornFrame || l2.Seq() != 3 {
			t.Fatalf("torn frame %v: opened %d records, torn %v, seq %d", tornFrame, len(l2.Records), l2.TornTail, l2.Seq())
		}
		appendN(t, l2, 1, 3)
		if fi, err := os.Stat(path); err != nil || (!tornFrame && fi.Size() != int64(len(raw))) {
			t.Fatalf("torn frame %v: the append left a %d-byte file, the image had %d (%v)", tornFrame, fi.Size(), len(raw), err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, err := Open(dst)
		if err != nil {
			t.Fatal(err)
		}
		// Closed, the file is its four frames and nothing else.
		if closed, _ := os.ReadFile(path); len(l3.Records) != 4 || l3.TornTail || framelog.Span(framelog.Frames(closed)) != int64(len(closed)) {
			t.Fatalf("torn frame %v: reopened %d records, torn %v, %d bytes", tornFrame, len(l3.Records), l3.TornTail, len(closed))
		}
		l3.Close()
	}
}

// ReadAll decodes frames from r until EOF or the first bad frame or
// invalid record (see DecodeRecords). It never fails: it returns the
// records decoded before the stream went bad, how many bytes of r they
// span, and whether the stream ended with a torn or corrupt tail (true)
// rather than a clean EOF (false).
func ReadAll(r io.Reader) (recs []Record, goodBytes int64, torn bool) {
	data, err := io.ReadAll(r)
	payloads := framelog.Frames(data)
	recs = DecodeRecords(payloads)
	goodBytes = framelog.Span(payloads[:len(recs)])
	return recs, goodBytes, goodBytes < int64(len(data)) || err != nil
}
