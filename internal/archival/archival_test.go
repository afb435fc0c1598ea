package archival

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// sample builds a small two-step, two-origin measurement with every
// record type, the shape the websim engine emits.
func sample() *Measurement {
	var g IDGen
	m := &Measurement{
		MeasurementID: "ws:site0.RW:36924",
		URL:           "http://site0.RW/",
		Domain:        "site0.RW",
		ProbeCountry:  "RW",
		ProbeASN:      36924,
		ResolverClass: "same-country",
		Steps: []Step{
			{StepID: 1, URL: "http://site0.RW/"},
			{StepID: 2, URL: "https://site0.RW/"},
		},
	}
	m.DNS = append(m.DNS,
		DNSLookup{ID: g.Next(), StepID: 1, Origin: OriginProbe, Domain: "site0.RW", ResolverClass: "same-country", Answers: []string{"41.0.0.10"}},
		DNSLookup{ID: g.Next(), StepID: 1, Origin: OriginControl, Domain: "site0.RW", ResolverClass: "control", Answers: []string{"41.0.0.10"}},
	)
	epProbe, epCtrl := g.Next(), g.Next()
	m.Dials = append(m.Dials,
		EndpointDial{ID: g.Next(), StepID: 1, EndpointID: epProbe, Origin: OriginProbe, Address: "41.0.0.10", Port: 80, LatencyMs: 42},
		EndpointDial{ID: g.Next(), StepID: 1, EndpointID: epCtrl, Origin: OriginControl, Address: "41.0.0.10", Port: 80, LatencyMs: 9},
	)
	m.HTTP = append(m.HTTP,
		HTTPRoundTrip{ID: g.Next(), StepID: 1, EndpointID: epProbe, Origin: OriginProbe, URL: "http://site0.RW/", StatusCode: 301, RedirectTo: "https://site0.RW/"},
		HTTPRoundTrip{ID: g.Next(), StepID: 1, EndpointID: epCtrl, Origin: OriginControl, URL: "http://site0.RW/", StatusCode: 301, RedirectTo: "https://site0.RW/"},
	)
	ep2Probe := g.Next()
	m.Dials = append(m.Dials,
		EndpointDial{ID: g.Next(), StepID: 2, EndpointID: ep2Probe, Origin: OriginProbe, Address: "41.0.0.10", Port: 443, LatencyMs: 42},
	)
	m.TLS = append(m.TLS,
		TLSHandshake{ID: g.Next(), StepID: 2, EndpointID: ep2Probe, Origin: OriginProbe, SNI: "site0.RW", LatencyMs: 84},
	)
	m.HTTP = append(m.HTTP,
		HTTPRoundTrip{ID: g.Next(), StepID: 2, EndpointID: ep2Probe, Origin: OriginProbe, URL: "https://site0.RW/", StatusCode: 200, BodyBytes: 18432, BodyHash: "ab12", TransferMs: 120},
	)
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sample()
	if err := m.Validate(); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	b1, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Measurement
	if err := json.Unmarshal(b1, &m2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(); err != nil {
		t.Fatalf("decoded invalid: %v", err)
	}
	b2, err := Encode(&m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encode/decode/encode not stable:\n%s\n%s", b1, b2)
	}
}

func TestFlattenCanonicalOrder(t *testing.T) {
	m := sample()
	obs := m.Flatten()
	want := len(m.DNS) + len(m.Dials) + len(m.TLS) + len(m.HTTP)
	if len(obs) != want {
		t.Fatalf("flatten rows = %d, want %d", len(obs), want)
	}
	// Shuffle the slices: the flattened order must not change.
	m2 := sample()
	m2.HTTP[0], m2.HTTP[2] = m2.HTTP[2], m2.HTTP[0]
	m2.DNS[0], m2.DNS[1] = m2.DNS[1], m2.DNS[0]
	obs2 := m2.Flatten()
	for i := range obs {
		if obs[i] != obs2[i] {
			t.Fatalf("row %d differs after shuffle: %+v vs %+v", i, obs[i], obs2[i])
		}
	}
	for i := 1; i < len(obs); i++ {
		if obs[i].StepID < obs[i-1].StepID {
			t.Fatalf("rows out of step order at %d", i)
		}
	}
}

func TestValidateRejectsOrphans(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Measurement)
		want   string
	}{
		{"empty id", func(m *Measurement) { m.MeasurementID = "" }, "empty measurement_id"},
		{"no steps", func(m *Measurement) { m.Steps = nil }, "no steps"},
		{"dup step", func(m *Measurement) { m.Steps[1].StepID = 1 }, "duplicate step id"},
		{"neg step", func(m *Measurement) { m.Steps[0].StepID = -4 }, "bad step id"},
		{"dns unknown step", func(m *Measurement) { m.DNS[0].StepID = 99 }, "unknown step"},
		{"dial unknown step", func(m *Measurement) { m.Dials[0].StepID = 99 }, "unknown step"},
		{"dial bad endpoint", func(m *Measurement) { m.Dials[0].EndpointID = 0 }, "bad endpoint id"},
		{"tls orphan endpoint", func(m *Measurement) { m.TLS[0].EndpointID = 999 }, "orphan"},
		{"tls wrong origin", func(m *Measurement) { m.TLS[0].Origin = OriginControl }, "orphan"},
		{"http orphan endpoint", func(m *Measurement) { m.HTTP[2].EndpointID = 999 }, "orphan"},
		{"dup record id", func(m *Measurement) { m.DNS[1].ID = m.DNS[0].ID }, "duplicate record id"},
		{"bad record id", func(m *Measurement) { m.HTTP[0].ID = 0 }, "bad http record id"},
	}
	for _, tc := range cases {
		m := sample()
		tc.mutate(m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a broken measurement", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeMalformedNeverPanics(t *testing.T) {
	inputs := []string{
		"", "null", "{", `{"measurement_id": 12}`, `[]`, `{"steps": "x"}`,
		`{"measurement_id":"m","steps":[{"step_id":"one"}]}`,
		string([]byte{0xff, 0xfe, 0x00}),
	}
	for _, in := range inputs {
		var m Measurement
		if json.Unmarshal([]byte(in), &m) != nil {
			continue
		}
		_ = m.Validate()
		_ = m.Flatten()
	}
}
