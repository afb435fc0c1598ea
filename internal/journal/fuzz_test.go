package journal

import (
	"bytes"
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
// the same records with no torn tail.
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
	})
}
