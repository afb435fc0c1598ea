// Package archival defines the flat, ID-linked measurement records the
// websteps experiment family produces — the `flat.go` idiom of
// websteps-illustrated: one record per DNS lookup, endpoint dial, TLS
// handshake, and HTTP round trip, all sharing a MeasurementID and
// linked by StepID/EndpointID, so a whole redirect chain archives as
// one self-describing unit that any store can ingest and any analyst
// can re-join without the producing process in memory.
//
// The types here are pure data: JSON-stable (fixed field order, no
// maps), clock-free (logical latencies only), and validated by link
// integrity — a sub-measurement that references a step or endpoint its
// measurement does not contain is an orphan and the whole record is
// rejected.
package archival

import (
	"encoding/json"
	"fmt"
)

// Origin says which vantage produced an observation: the probe under
// test or the control (test-helper) vantage whose view defines truth.
type Origin string

const (
	OriginProbe   Origin = "probe"
	OriginControl Origin = "control"
)

// Step is one URL of the redirect chain, e.g. http://site/ followed by
// https://site/. StepIDs are positive and unique within a measurement.
type Step struct {
	StepID int64  `json:"step_id"`
	URL    string `json:"url"`
}

// DNSLookup is one resolution attempt: which resolver class answered,
// from where, and with what addresses. Bogon marks answers in
// never-routed space — the classic poisoned-response signature.
type DNSLookup struct {
	ID              int64    `json:"id"`
	StepID          int64    `json:"step_id"`
	Origin          Origin   `json:"origin"`
	Domain          string   `json:"domain"`
	ResolverClass   string   `json:"resolver_class"`
	ResolverCountry string   `json:"resolver_country,omitempty"`
	Answers         []string `json:"answers,omitempty"`
	Bogon           bool     `json:"bogon,omitempty"`
	Failure         string   `json:"failure,omitempty"`
	LatencyMs       float64  `json:"latency_ms,omitempty"`
}

// EndpointDial is one TCP connect to address:port. EndpointID is the
// link target TLS handshakes and HTTP round trips on this connection
// reference; it is positive and unique within the measurement.
type EndpointDial struct {
	ID         int64   `json:"id"`
	StepID     int64   `json:"step_id"`
	EndpointID int64   `json:"endpoint_id"`
	Origin     Origin  `json:"origin"`
	Address    string  `json:"address"`
	Port       int     `json:"port"`
	Failure    string  `json:"failure,omitempty"`
	LatencyMs  float64 `json:"latency_ms,omitempty"`
}

// TLSHandshake is one handshake over an established dial. An injected
// RST on the ClientHello surfaces as Failure="connection_reset" with
// the SNI that triggered it.
type TLSHandshake struct {
	ID         int64   `json:"id"`
	StepID     int64   `json:"step_id"`
	EndpointID int64   `json:"endpoint_id"`
	Origin     Origin  `json:"origin"`
	SNI        string  `json:"sni"`
	Failure    string  `json:"failure,omitempty"`
	LatencyMs  float64 `json:"latency_ms,omitempty"`
}

// HTTPRoundTrip is one request/response over an endpoint. BodyHash
// identifies the content (blockpage substitution shows as a hash that
// differs from the control's); TransferMs is the full body transfer
// time, which token-bucket throttling inflates.
type HTTPRoundTrip struct {
	ID         int64   `json:"id"`
	StepID     int64   `json:"step_id"`
	EndpointID int64   `json:"endpoint_id"`
	Origin     Origin  `json:"origin"`
	URL        string  `json:"url"`
	StatusCode int     `json:"status_code,omitempty"`
	BodyBytes  int64   `json:"body_bytes,omitempty"`
	BodyHash   string  `json:"body_hash,omitempty"`
	RedirectTo string  `json:"redirect_to,omitempty"`
	Failure    string  `json:"failure,omitempty"`
	TransferMs float64 `json:"transfer_ms,omitempty"`
}

// Measurement is one URL followed through its whole redirect chain from
// two vantages. It is the unit of archival: everything inside shares
// MeasurementID, and every sub-measurement links to a Step (and, past
// DNS, to an EndpointDial) defined here.
type Measurement struct {
	MeasurementID string `json:"measurement_id"`
	URL           string `json:"url"`
	Domain        string `json:"domain"`
	ProbeCountry  string `json:"probe_country,omitempty"`
	ProbeASN      uint32 `json:"probe_asn,omitempty"`
	// ResolverClass is the probe-side resolver classification
	// (same-country / other-country / cloud).
	ResolverClass string          `json:"resolver_class,omitempty"`
	Steps         []Step          `json:"steps"`
	DNS           []DNSLookup     `json:"dns,omitempty"`
	Dials         []EndpointDial  `json:"dials,omitempty"`
	TLS           []TLSHandshake  `json:"tls,omitempty"`
	HTTP          []HTTPRoundTrip `json:"http,omitempty"`
}

// IDGen mints the positive, per-measurement-unique record and endpoint
// IDs. A plain counter: determinism comes from call order, which the
// engine fixes.
type IDGen struct{ next int64 }

// Next returns the next ID (starting at 1).
func (g *IDGen) Next() int64 {
	g.next++
	return g.next
}

// Encode marshals the measurement to its stable JSON form. Field order
// is fixed by the struct definitions and there are no maps, so equal
// measurements encode byte-identically.
func Encode(m *Measurement) ([]byte, error) {
	return json.Marshal(m)
}

// Validate checks link integrity: IDs positive and unique, every
// sub-measurement's StepID resolving to a declared step, and every
// TLS/HTTP record's EndpointID resolving to a dial of the same origin
// and step. A record that fails is an orphan sub-measurement and must
// not be ingested.
func (m *Measurement) Validate() error {
	if m == nil {
		return fmt.Errorf("archival: nil measurement")
	}
	if m.MeasurementID == "" {
		return fmt.Errorf("archival: empty measurement_id")
	}
	if len(m.Steps) == 0 {
		return fmt.Errorf("archival: %s: no steps", m.MeasurementID)
	}
	steps := make(map[int64]bool, len(m.Steps))
	for _, st := range m.Steps {
		if st.StepID <= 0 {
			return fmt.Errorf("archival: %s: bad step id %d", m.MeasurementID, st.StepID)
		}
		if steps[st.StepID] {
			return fmt.Errorf("archival: %s: duplicate step id %d", m.MeasurementID, st.StepID)
		}
		steps[st.StepID] = true
	}
	ids := make(map[int64]bool)
	record := func(id int64, kind string) error {
		if id <= 0 {
			return fmt.Errorf("archival: %s: bad %s record id %d", m.MeasurementID, kind, id)
		}
		if ids[id] {
			return fmt.Errorf("archival: %s: duplicate record id %d", m.MeasurementID, id)
		}
		ids[id] = true
		return nil
	}
	// endpoint key: (step, origin, endpoint) — a TLS handshake may only
	// ride a connection its own vantage opened in its own step.
	type epKey struct {
		step int64
		org  Origin
		ep   int64
	}
	endpoints := make(map[epKey]bool)
	for _, d := range m.DNS {
		if err := record(d.ID, "dns"); err != nil {
			return err
		}
		if !steps[d.StepID] {
			return fmt.Errorf("archival: %s: dns record %d references unknown step %d", m.MeasurementID, d.ID, d.StepID)
		}
	}
	for _, d := range m.Dials {
		if err := record(d.ID, "dial"); err != nil {
			return err
		}
		if !steps[d.StepID] {
			return fmt.Errorf("archival: %s: dial record %d references unknown step %d", m.MeasurementID, d.ID, d.StepID)
		}
		if d.EndpointID <= 0 {
			return fmt.Errorf("archival: %s: dial record %d has bad endpoint id %d", m.MeasurementID, d.ID, d.EndpointID)
		}
		k := epKey{d.StepID, d.Origin, d.EndpointID}
		if endpoints[k] {
			return fmt.Errorf("archival: %s: duplicate endpoint id %d in step %d", m.MeasurementID, d.EndpointID, d.StepID)
		}
		endpoints[k] = true
	}
	for _, h := range m.TLS {
		if err := record(h.ID, "tls"); err != nil {
			return err
		}
		if !steps[h.StepID] {
			return fmt.Errorf("archival: %s: tls record %d references unknown step %d", m.MeasurementID, h.ID, h.StepID)
		}
		if !endpoints[epKey{h.StepID, h.Origin, h.EndpointID}] {
			return fmt.Errorf("archival: %s: tls record %d is an orphan: no %s dial with endpoint %d in step %d",
				m.MeasurementID, h.ID, h.Origin, h.EndpointID, h.StepID)
		}
	}
	for _, h := range m.HTTP {
		if err := record(h.ID, "http"); err != nil {
			return err
		}
		if !steps[h.StepID] {
			return fmt.Errorf("archival: %s: http record %d references unknown step %d", m.MeasurementID, h.ID, h.StepID)
		}
		if !endpoints[epKey{h.StepID, h.Origin, h.EndpointID}] {
			return fmt.Errorf("archival: %s: http record %d is an orphan: no %s dial with endpoint %d in step %d",
				m.MeasurementID, h.ID, h.Origin, h.EndpointID, h.StepID)
		}
	}
	return nil
}
