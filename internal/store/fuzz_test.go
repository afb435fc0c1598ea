package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// FuzzSegmentReplay hammers parseSegment with corrupted, truncated, and
// arbitrary byte streams: it must never panic, must return records in
// strictly increasing seq order, and — for any prefix truncation of a
// valid segment — must return a prefix of the original records with
// torn=true (or the whole set at a clean boundary). Beside every record
// it accepts it must keep the payload that record decodes from, a slice
// of the input, and nothing for a frame it refused: those are the bytes a
// scan page serves for the record (Item.JSON). Its key summary must be
// sorted and hold the key hashes of exactly the records it accepted, so a
// torn prefix never leaves a summary that disagrees with its records.
func FuzzSegmentReplay(f *testing.F) {
	var recs []Record
	for i := 0; i < 8; i++ {
		r := mkRec("exp-0001", i, int64(i))
		r.Seq = uint64(i + 1)
		recs = append(recs, r)
	}
	valid, _, err := encodeSegment(buildMeta(recs), recs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:6])            // short header (of 8 bytes)
	f.Add([]byte{})             // empty
	f.Add([]byte("not a segment"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff // corrupt last frame's payload
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, d, torn := parseSegment(data)
		got := d.recs
		if len(d.raws) != len(got) {
			t.Fatalf("%d payloads kept for %d accepted records", len(d.raws), len(got))
		}
		for i, raw := range d.raws {
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil || !reflect.DeepEqual(rec, got[i]) {
				t.Fatalf("payload %d decodes to %+v (err %v), its record is %+v", i, rec, err, got[i])
			}
			if !bytes.Contains(data, raw) {
				t.Fatalf("payload %d is not a slice of the segment", i)
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				t.Fatalf("records out of seq order at %d", i)
			}
		}
		want := make([]uint64, len(got))
		for i := range got {
			want[i] = keyHash(got[i].Experiment, got[i].TaskID)
		}
		slices.Sort(want)
		if !slices.Equal(d.keys, want) {
			t.Fatalf("key summary %x, the %d records it holds hash to %x", d.keys, len(got), want)
		}
		if len(got) > meta.Frames && meta.Frames > 0 {
			// More records than the index claims is possible only for
			// adversarial metas; tolerated, never fatal. (Real segments
			// write Frames == len(recs).)
			_ = torn
		}
		// Truncations of the known-valid segment return a prefix.
		if len(data) < len(valid) && bytes.Equal(data, valid[:len(data)]) {
			if len(got) > len(recs) {
				t.Fatalf("truncated segment yielded %d records, original had %d", len(got), len(recs))
			}
			for i, r := range got {
				if r.Seq != recs[i].Seq || r.TaskID != recs[i].TaskID {
					t.Fatalf("truncated segment record %d is not a prefix of the original", i)
				}
				if want, _ := json.Marshal(&recs[i]); !bytes.Equal(d.raws[i], want) {
					t.Fatalf("truncated segment payload %d is\n%s\nthe original record encodes to\n%s", i, d.raws[i], want)
				}
			}
			if len(got) < len(recs) && !torn {
				t.Fatal("lost records without torn=true")
			}
		}
	})
}
