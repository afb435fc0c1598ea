package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frames builds a valid frame stream of n records starting at seq.
func frames(t testing.TB, start uint64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		frame, err := EncodeFrame(Record{Seq: start + uint64(i), Kind: "op", Data: []byte(`{"i":1}`)})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	return buf.Bytes()
}

// FuzzJournalReplay feeds arbitrary byte streams to the replay reader.
// Whatever the input — truncations, bit flips, random garbage — ReadAll
// must never panic, must stop at the first bad checksum, and must be
// self-consistent: re-reading exactly the bytes it called good yields
// the same records with no torn tail. Open of the same bytes as a
// journal.log recovers those records, calls the rest a torn tail unless
// it is all zeros (a live log's allocation), and appends right behind
// the good prefix either way.
func FuzzJournalReplay(f *testing.F) {
	valid := frames(f, 1, 4)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20 // bit flip mid-frame
	f.Add(flipped)
	f.Add(frames(f, 900, 3))                           // arbitrary start seq
	f.Add(append(frames(f, 1, 2), frames(f, 1, 2)...)) // seq regression
	f.Add(append(frames(f, 1, 2), frames(f, 2, 2)...)) // seq reused: what an Append after a failed fsync wrote before fail-stop
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})  // huge length prefix
	f.Add(bytes.Repeat([]byte{0}, 256))
	zeros := make([]byte, 300)
	f.Add(append(frames(f, 1, 4), zeros...))                                  // a live log's image: frames, then its allocation
	f.Add(append(append(frames(f, 1, 4), 0x13, 0x37), zeros...))              // garbage, then zeros
	f.Add(append(append(frames(f, 1, 3), frames(f, 4, 1)[:11]...), zeros...)) // a frame torn in place, zeros behind the cut
	f.Add(append(append(frames(f, 1, 3), zeros[:20]...), frames(f, 4, 1)...)) // a later page of a grow landed without the earlier one

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, torn := ReadAll(bytes.NewReader(data))
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("goodBytes %d out of range [0,%d]", good, len(data))
		}
		if !torn && good != int64(len(data)) {
			t.Fatalf("clean stream but only %d/%d bytes consumed", good, len(data))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("non-monotonic seq survived replay: %d then %d", recs[i-1].Seq, recs[i].Seq)
			}
		}
		for _, rec := range recs {
			if rec.Kind == "" {
				t.Fatal("record with empty kind survived replay")
			}
		}
		// Replay is prefix-stable: the good prefix re-reads identically.
		recs2, good2, torn2 := ReadAll(bytes.NewReader(data[:good]))
		if good2 != good || torn2 || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("good prefix not stable: %d/%v vs %d/%v", good, torn, good2, torn2)
		}

		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		wantTorn := len(bytes.Trim(data[good:], "\x00")) > 0
		if l.TornTail != wantTorn || !reflect.DeepEqual(l.Records, recs) {
			t.Fatalf("Open: torn %v with %d records, the reader found %d and a torn tail is %v", l.TornTail, len(l.Records), len(recs), wantTorn)
		}
		l.WrapSync = func(func() error) error { return nil } // the file is only ever read back by this process
		seq, err := l.Append("op", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		frame, _ := EncodeFrame(Record{Seq: seq, Kind: "op", Data: []byte("1")})
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, append(data[:good:good], frame...)) {
			t.Fatalf("after an append and a close the file is %d bytes, want the %d good ones and a %d-byte frame", len(raw), good, len(frame))
		}
	})
}
