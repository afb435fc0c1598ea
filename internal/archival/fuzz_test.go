package archival

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzArchivalDecode hammers the decode → validate → flatten →
// re-encode pipeline with arbitrary bytes: malformed IDs, missing
// links, and truncated records must never panic, and any input that
// decodes and validates must round-trip byte-identically with a stable
// flattening. This is the ingestion boundary — archival records arrive
// from probes over the wire, so hostile bytes are a normal Tuesday.
func FuzzArchivalDecode(f *testing.F) {
	valid, err := Encode(sample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"measurement_id":"m","steps":[{"step_id":1,"url":"http://x/"}]}`))
	f.Add([]byte(`{"measurement_id":"m","steps":[{"step_id":1}],"tls":[{"id":1,"step_id":1,"endpoint_id":7}]}`))
	if len(valid) > 10 {
		f.Add(valid[:len(valid)/2]) // truncated record
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Measurement
		if json.Unmarshal(data, &m) != nil {
			return
		}
		obs := m.Flatten() // must not panic even on invalid links
		if err := m.Validate(); err != nil {
			return
		}
		enc, err := Encode(&m)
		if err != nil {
			t.Fatalf("valid measurement failed to encode: %v", err)
		}
		var m2 Measurement
		if err := json.Unmarshal(enc, &m2); err != nil {
			t.Fatalf("re-decode of encoded measurement failed: %v", err)
		}
		enc2, err := Encode(&m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not stable:\n%s\n%s", enc, enc2)
		}
		if !reflect.DeepEqual(obs, m2.Flatten()) {
			t.Fatal("flatten differs across a decode round trip")
		}
	})
}
