package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/par"
)

// unmarshalRecord is the record decoder's specification: json.Unmarshal
// into a Record, valid when it succeeds and the Kind is not empty.
func unmarshalRecord(payload []byte) (Record, bool) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Kind == "" {
		return Record{}, false
	}
	return rec, true
}

// recordSeeds are payloads around the edges of the cut envelope: the
// layout EncodeFrame writes, and everything near it that must go to (and
// come back from) the full decode unchanged.
var recordSeeds = []string{
	`{"seq":1,"kind":"op","data":{"i":1}}`,
	`{"seq":18446744073709551615,"kind":"probe_sync","data":[1,"}",{"kind":"x"}]}`,
	`{"seq":2,"kind":"op"}`,
	`{"seq":0,"kind":"op","data":0}`,
	`{"seq":2,"kind":"op","data":null}`,
	`{"seq":2,"kind":"op","data":}`,
	`{"seq":2,"kind":"op","data":""}`,
	`{"seq":2,"kind":"","data":1}`,
	`{"seq":2,"kind":"a\","data":1}`,
	`{"seq":2,"kind":"a\"b","data":1}`,
	`{"seq":2,"kind":"a\u0062","data":1}`,
	"{\"seq\":2,\"kind\":\"caf\xc3\xa9\",\"data\":1}",
	"{\"seq\":2,\"kind\":\"bad\xff\",\"data\":1}",
	"{\"seq\":2,\"kind\":\"tab\there\",\"data\":1}",
	`{"kind":"op","seq":3,"data":1}`,
	`{"seq":3,"data":1,"kind":"op"}`,
	`{"seq":3,"kind":"op","data":1,"data":2}`,
	`{"seq":3,"kind":"op","kind":"other","data":1}`,
	`{"seq":3,"kind":"op","data":1,"extra":true}`,
	`{"seq":3,"kind":"op","data":"}","kind":"z"}`,
	`{"seq":3,"kind":"op","data":{"a":1}}}`,
	`{"seq":3,"kind":"op","data":{"a":1}`,
	`{"seq":3,"kind":"op","data":{bad}}`,
	`{"seq":3,"kind":"op","data":tru}`,
	`{"seq":3,"kind":"op","data": {"a":1} }`,
	`{ "seq" : 3 , "kind" : "op" , "data" : 1 }`,
	"{\"seq\":3,\"kind\":\"op\",\"data\":1}\n",
	`{"seq":3,"kind":"op","data":1} trailing`,
	`{"seq":03,"kind":"op","data":1}`,
	`{"seq":+3,"kind":"op","data":1}`,
	`{"seq":-3,"kind":"op","data":1}`,
	`{"seq":3.0,"kind":"op","data":1}`,
	`{"seq":3e0,"kind":"op","data":1}`,
	`{"seq":"3","kind":"op","data":1}`,
	`{"seq":18446744073709551616,"kind":"op","data":1}`,
	`{"seq":,"kind":"op","data":1}`,
	`{"seq":3,"kind":"op"`,
	`{"seq":3,"kind":"op",}`,
	`{"seq":3,"kind":null}`,
	`{"seq":3,"kind":7}`,
	`{"Seq":3,"KIND":"op","Data":1}`,
	`[]`, `null`, `7`, ``, `{}`,
}

// FuzzDecodeRecord holds the fast path to its specification: for any
// payload, decodeRecord accepts exactly what json.Unmarshal into a Record
// accepts, with the same Seq, Kind and Data bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range recordSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		want, ok := unmarshalRecord(payload)
		got := decodeRecord(payload)
		if gotOK := got.Kind != ""; gotOK != ok {
			t.Fatalf("payload %q: decodeRecord valid = %v, json.Unmarshal says %v", payload, gotOK, ok)
		}
		if !ok {
			return
		}
		if got.Seq != want.Seq || got.Kind != want.Kind || !bytes.Equal(got.Data, want.Data) || (got.Data == nil) != (want.Data == nil) {
			t.Fatalf("payload %q:\n got %d %q %q\nwant %d %q %q", payload, got.Seq, got.Kind, got.Data, want.Seq, want.Kind, want.Data)
		}
	})
}

// TestCutRecordTakesWhatEncodeFrameWrites: the layout Append produces is
// read without the full decode, data or no data, so the fast path is the
// path a real journal takes.
func TestCutRecordTakesWhatEncodeFrameWrites(t *testing.T) {
	for _, rec := range []Record{
		{Seq: 1, Kind: "probe_sync", Data: json.RawMessage(`{"probe_id":"kgl-01","max":4}`)},
		{Seq: 1 << 40, Kind: "tick"},
		{Seq: 7, Kind: "result", Data: json.RawMessage(`"<&>\u2028 é"`)},
	} {
		frame, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cutRecord(frame[framelog.HeaderBytes:])
		if want, _ := unmarshalRecord(frame[framelog.HeaderBytes:]); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("cutRecord(%s) = %+v, %v; want %+v", frame[framelog.HeaderBytes:], got, ok, want)
		}
	}
}

// rawFrame frames a hand-written payload.
func rawFrame(t testing.TB, payload string) []byte {
	t.Helper()
	frame, err := framelog.AppendFrame(nil, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestOpenTruncatesAtFirstInvalidRecord: a frame that passes its
// checksum but is not a valid next record ends the stream exactly there,
// wherever it sits — the file is cut at that frame's offset and the good
// frames behind it go too.
func TestOpenTruncatesAtFirstInvalidRecord(t *testing.T) {
	const n = 6
	bad := map[string]func(k int) string{
		"bad JSON in data": func(k int) string { return fmt.Sprintf(`{"seq":%d,"kind":"op","data":{bad}}`, k+1) },
		"empty kind":       func(k int) string { return fmt.Sprintf(`{"seq":%d,"kind":"","data":{"i":1}}`, k+1) },
		"seq reused":       func(k int) string { return fmt.Sprintf(`{"seq":%d,"kind":"op","data":{"i":1}}`, k) },
		"seq regressed":    func(k int) string { return fmt.Sprintf(`{"seq":%d,"kind":"op","data":{"i":1}}`, k-1) },
	}
	for name, payload := range bad {
		for _, k := range []int{1, 3, n - 1} {
			t.Run(fmt.Sprintf("%s at %d", name, k), func(t *testing.T) {
				var file []byte
				var offset int
				for i := 0; i < n; i++ {
					if i == k {
						offset = len(file)
						file = append(file, rawFrame(t, payload(k))...)
						continue
					}
					file = append(file, frames(t, uint64(i+1), 1)...)
				}
				dir := t.TempDir()
				path := filepath.Join(dir, logName)
				if err := os.WriteFile(path, file, 0o644); err != nil {
					t.Fatal(err)
				}
				l, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if !l.TornTail || len(l.Records) != k || l.Seq() != uint64(k) {
					t.Fatalf("torn %v, %d records, seq %d; want a torn tail after record %d", l.TornTail, len(l.Records), l.Seq(), k)
				}
				if kept, _ := os.ReadFile(path); !bytes.Equal(kept, file[:offset]) {
					t.Fatalf("file holds %d bytes, want the %d before frame %d", len(kept), offset, k)
				}
			})
		}
	}
}

// TestDecodeIsWorkerCountIndependent: one worker and eight read the same
// records, to the same end, from a stream with every kind of payload in
// it — cut, fully decoded, and invalid.
func TestDecodeIsWorkerCountIndependent(t *testing.T) {
	var clean [][]byte
	for i := 0; i < 400; i++ {
		clean = append(clean, []byte(fmt.Sprintf(`{"seq":%d,"kind":"op","data":{"i":%d,"pad":%q}}`, 2*i+1, i, strings.Repeat("x", i%97))))
		if i%50 == 7 {
			clean = append(clean, []byte(fmt.Sprintf(`{ "kind":"spaced", "seq":%d }`, 2*i+2)))
		}
	}
	const end = 300
	streams := map[string][][]byte{"": clean}
	for _, invalid := range []string{`{"seq":1,"kind":"op"}`, `{"seq":9999,"kind":"","data":1}`, `{"seq":9999,"kind":"op","data":{bad}}`} {
		stream := append(append([][]byte{}, clean[:end]...), []byte(invalid))
		streams[invalid] = append(stream, clean[end:]...)
	}
	for invalid, stream := range streams {
		var got [2][]Record
		for i, workers := range []int{1, 8} {
			prev := par.SetDefaultWorkers(workers)
			got[i] = DecodeRecords(stream)
			par.SetDefaultWorkers(prev)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("with %q: 1 worker read %d records, 8 read %d, or they differ", invalid, len(got[0]), len(got[1]))
		}
		want := end
		if invalid == "" {
			want = len(clean)
		}
		if len(got[0]) != want {
			t.Fatalf("with %q: the stream ends after %d records, want %d", invalid, len(got[0]), want)
		}
	}
}

// TestDecodeOpsReportsTheFirstFailure: the error is the lowest failing
// record's, whichever worker met it, and names kind and seq.
func TestDecodeOpsReportsTheFirstFailure(t *testing.T) {
	type state struct{ sum int }
	ops := map[string]Op[*state]{"add": OpOf(func(s *state, n int) { s.sum += n })}
	recs := []Record{
		{Seq: 1, Kind: "add", Data: json.RawMessage(`2`)},
		{Seq: 2, Kind: "add", Data: json.RawMessage(`40`)},
	}
	applies, err := DecodeOps(ops, recs)
	if err != nil {
		t.Fatal(err)
	}
	var s state
	for _, apply := range applies {
		apply(&s)
	}
	if s.sum != 42 {
		t.Fatalf("applied sum = %d, want 42", s.sum)
	}
	recs = append(recs, Record{Seq: 3, Kind: "add", Data: json.RawMessage(`"x"`)}, Record{Seq: 4, Kind: "mul", Data: json.RawMessage(`2`)})
	if _, err := DecodeOps(ops, recs); err == nil || !strings.HasPrefix(err.Error(), "replaying add record seq 3: ") {
		t.Fatalf("error = %v, want the undecodable record 3", err)
	}
	if _, err := DecodeOps(ops, recs[3:]); err == nil || err.Error() != `unknown journal record kind "mul" (seq 4)` {
		t.Fatalf("error = %v, want the unknown kind", err)
	}
}

// TestCutOpOfFallsBack: data the cut takes is applied as cut; data it
// declines is read by json.Unmarshal and applied after reflected; data
// neither reads fails the decode.
func TestCutOpOfFallsBack(t *testing.T) {
	type state struct{ sum, reflected int }
	digit := func(b []byte) (int, bool) {
		if len(b) != 1 || b[0] < '0' || b[0] > '9' {
			return 0, false
		}
		return int(b[0] - '0'), true
	}
	op := CutOpOf(digit, func(s *state, n int) { s.sum += n }, func(s *state) { s.reflected++ })
	var s state
	for _, data := range []string{`2`, ` 7`, `33`} {
		apply, err := op([]byte(data))
		if err != nil {
			t.Fatalf("%q: %v", data, err)
		}
		apply(&s)
	}
	if s != (state{sum: 42, reflected: 2}) {
		t.Fatalf("state = %+v, want sum 42 with 2 reflected", s)
	}
	if _, err := op([]byte(`"x"`)); err == nil {
		t.Fatal("decoded a string as an int")
	}
}

// BenchmarkOpen opens a journal of 4 000 small records and one large one
// (the shape a replay-only recovery reads): file read, frame walk, record
// decode. Run at -cpu 1,2 to tell the decode's serial cost from its
// parallel one.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	l.WrapSync = func(func() error) error { return nil } // the file is only ever read back by this process
	big := make([]map[string]string, 4000)
	for i := range big {
		big[i] = map[string]string{"probe": fmt.Sprintf("probe-%04d", i), "kind": "ping", "target": "10.0.0.1"}
	}
	if _, err := l.Append("experiment_submit", big); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if _, err := l.Append("probe_sync", map[string]any{"probe_id": fmt.Sprintf("probe-%04d", i), "refs": []string{"a", "b"}, "max": 2}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(l.Records) != 4001 {
			b.Fatalf("read %d records", len(l.Records))
		}
		l.Close()
	}
}
