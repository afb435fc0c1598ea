package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
)

// submitCut is FuzzSubmitBodyCut's check: cutSubmitRequest declines a
// body or returns exactly what json.Unmarshal reads of it.
var submitCut = sameAsUnmarshal(cutSubmitRequest)

// submitBody draws a submission body, its strings from g.str.
func (g frameGen) submitBody() SubmitRequest {
	req := SubmitRequest{Owner: g.str(), Description: g.str()}
	if g.rng.Intn(2) == 0 {
		req.RequestID = g.str()
	}
	if g.rng.Intn(2) == 0 {
		req.ID = g.str()
	}
	if n := g.rng.Intn(6); n > 0 {
		req.Assignments = make([]probes.Assignment, n-1)
		for i, t := range g.tasks(n - 1) {
			req.Assignments[i] = probes.Assignment{ProbeID: g.str(), Task: t}
			if i > 0 && g.rng.Intn(2) == 0 {
				req.Assignments[i].ProbeID = req.Assignments[i-1].ProbeID
			}
		}
	}
	return req
}

// FuzzSubmitBodyCut: cutSubmitRequest either declines a submission body
// or returns exactly what json.Unmarshal makes of it, nil and empty
// assignments told apart. The seeds are json.Marshal's bytes for
// submissions with odd strings and every Task field at its edges, and
// near misses: escapes, white space, duplicate, case-folded and unknown
// keys, null, numbers out of range and a trailing value.
func FuzzSubmitBodyCut(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	odd := []string{"", "p1", "a<b>&c", "exp-é", "line sep", `q"uo\te`, "tab\there", "bad\xffutf8"}
	for _, g := range []frameGen{{rng, printableIDs(rng)}, {rng, func() string { return odd[rng.Intn(len(odd))] }}} {
		for n := 0; n < 8; n++ {
			raw, err := json.Marshal(g.submitBody())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	a := `{"ProbeID":"p1","Task":{"id":"","experiment":"","kind":"ping"`
	head := `{"owner":"o","description":"d","assignments":[`
	for _, s := range []string{
		head + `]}`,
		`{"request_id":"r","owner":"o","description":"d","assignments":[],"id":"x"}`,
		head + a + `,"ecs":true}}]}`,
		head + a + `,"target":"10.0.0.1","domain":"d","origin_country":"RW","repeat":2,"queries":64,"ecs":true,"value":1e-7}},` + a + `}}]}`,
		head + a + `,"value":1e400}}]}`, head + a + `,"repeat":9223372036854775808}}]}`,
		head + a + `,"value":123456789012345678901234567890}}]}`, head + a + `,"ecs":false}}]}`,
		`{"owner":"o","description":"d","assignments":null}`, `null`, `{}`, `[]`,
		`{"owner":"o<","description":"d","assignments":[]}`, `{"owner":"o\"","description":"d","assignments":[]}`,
		`{"owner": "o","description":"d","assignments":[]}`, head + `]} `, ` ` + head + `]}`, head + ` ]}`,
		head + `]}{"owner":"p"}`, head + `]}x`, head + `]`,
		`{"Owner":"o","description":"d","assignments":[]}`, head + `{"probeid":"p1","Task":{"id":"","experiment":"","kind":"ping"}}]}`,
		`{"owner":"o","owner":"p","description":"d","assignments":[]}`, head + `],"id":"x","id":"y"}`,
		`{"owner":"o","description":"d","assignments":[],"extra":1}`, head + a + `,"unknown":1}}]}`,
		`{"description":"d","owner":"o","assignments":[]}`, `{"id":"x","owner":"o","description":"d","assignments":[]}`,
		head + `{"Task":{"id":"","experiment":"","kind":"ping"},"ProbeID":"p1"}]}`, head + a + `}},]}`,
		head + `{"ProbeID":"p1","Task":null}]}`, head + `{"ProbeID":null,"Task":{"id":"","experiment":"","kind":"ping"}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := submitCut(data); err != nil {
			t.Fatal(err)
		}
	})
}

// fillTask sets every field of t by reflection, strings from str and
// floats from x, so a field added to probes.Task without a line in
// appendTask makes FuzzExperimentJSON's bytes differ.
func fillTask(t *testing.T, rng *rand.Rand, str func() string, x float64) probes.Task {
	var task probes.Task
	v := reflect.ValueOf(&task).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.String:
			fv.SetString(str())
		case reflect.Int:
			fv.SetInt(int64(taskInts[rng.Intn(len(taskInts))]))
		case reflect.Bool:
			fv.SetBool(rng.Intn(2) == 0)
		case reflect.Float64:
			fv.SetFloat([]float64{0, x, -x, taskValues[rng.Intn(len(taskValues))]}[rng.Intn(4)])
		default:
			t.Fatalf("probes.Task.%s is a %s, which fillTask does not draw", v.Type().Field(i).Name, fv.Kind())
		}
	}
	return task
}

// FuzzExperimentJSON holds writeExperiment to WriteJSON, which wrote
// every experiment reply before it: the same status, content type and
// bytes, the 500 for a NaN or infinite Task.Value included.
func FuzzExperimentJSON(f *testing.F) {
	for _, x := range []float64{0, 1e-7, 1e-6, 1e21, 1e20, -1.5, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(uint64(1), "exp-0001", x)
	}
	for i, s := range []string{"", "<script>&amp;</script>", "bad\xffutf8\xc0\x80", "line sep", "\x00\"\\/\t", "héllo \U0001F642"} {
		f.Add(uint64(i+2), s, 0.5)
	}
	f.Fuzz(func(t *testing.T, seed uint64, s string, x float64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		strs := []string{"", s, "p1", "exp-0001", "ping", "<&>"}
		str := func() string { return strs[rng.Intn(len(strs))] }
		exp := &Experiment{ID: str(), Owner: str(), Description: str(), Status: ExperimentStatus(str())}
		if n := rng.Intn(5); n > 0 {
			exp.Assignments = make([]probes.Assignment, n-1)
			for i := range exp.Assignments {
				exp.Assignments[i] = probes.Assignment{ProbeID: str(), Task: fillTask(t, rng, str, x)}
			}
		}
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		WriteJSON(want, http.StatusOK, exp)
		writeExperiment(got, exp)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("status %d %q, WriteJSON's %d %q", got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("writeExperiment wrote\n%q\nWriteJSON writes\n%q", got.Body, want.Body)
		}
	})
}

// TestWireBodiesAreCut holds the wire's cuts to the bodies this module
// writes: core.Client's register and submit bodies, and json.Marshal of
// random submissions of printable strings, are all cut, so the count of
// reflected bodies stays 0. An indented body is still served, by the
// reference, and counted.
func TestWireBodiesAreCut(t *testing.T) {
	c := NewController("o")
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	reflected := c.reg.Counters(MetricBodyReflected)
	cl := NewClient(srv.URL)
	if err := cl.Register(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW", HasWired: true, Kind: "proxy"}); err != nil {
		t.Fatal(err)
	}
	as := []probes.Assignment{
		{ProbeID: "p1", Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1", Repeat: 3, Value: 0.25}},
		{ProbeID: "p1", Task: probes.Task{Kind: probes.TaskDNSLoad, Domain: "site0.RW", OriginCountry: "RW", Queries: 64, ECS: true}},
	}
	if _, err := cl.Submit("o", "wire", as); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitRequest(SubmitRequest{RequestID: "r1", ID: "pin.1", Owner: "o", Description: "pinned", Assignments: as}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	g := frameGen{rng, printableIDs(rng)}
	for i := 0; i < 200; i++ {
		raw, err := json.Marshal(g.submitBody())
		if err != nil {
			t.Fatal(err)
		}
		doReq(c.Handler(), http.MethodPost, "/api/v1/experiments", string(raw), nil) // refused or not, it was read
	}
	if got := reflected.Snapshot(); len(got) != 0 {
		t.Fatalf("bodies read by reflection: %v", got)
	}

	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(`{"id":"p2","asn":1,"country":"NG","has_wired":false}`), "", "  "); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/probes/register", "application/json", strings.NewReader(indented.String()+"\n\t "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reflected.Get("probe_register") != 1 {
		t.Fatalf("indented register: %d, reflected %v", resp.StatusCode, reflected.Snapshot())
	}
}
