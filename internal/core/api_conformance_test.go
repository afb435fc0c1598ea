package core

// api_conformance_test.go walks the route table (APIRoutes) rather than
// hand-listing endpoints, so a route added to the table is conformance-
// checked automatically: method rejection, error-envelope shape,
// request-id echo, metrics registration, page shapes, and the trace
// ring's bound and span nesting. The Walk* functions take a (handler,
// table) pair: the tests here run them over a controller, and
// api_conformance_fed_test.go (package core_test, which may import
// internal/federation) runs the same walkers over a coordinator.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/store"
)

// fillPattern substitutes every {param} in a route pattern with a
// concrete segment.
func fillPattern(pattern string) string {
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		if strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}") {
			segs[i] = "conf-" + s[1:len(s)-1]
		}
	}
	return strings.Join(segs, "/")
}

// doReq drives one request through the handler and returns the
// recorder.
func doReq(h http.Handler, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeEnvelope asserts the body is the uniform error envelope and
// returns it.
func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an error envelope: %v (body=%q)", err, w.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" || env.Error.RequestID == "" {
		t.Fatalf("envelope missing fields: %+v", env.Error)
	}
	return env
}

// TestRouteTableMethodRejection sends the wrong method to every route
// in the table and requires a 405 envelope with a correct Allow header.
func TestRouteTableMethodRejection(t *testing.T) {
	WalkMethodRejection(t, NewController("owner").Handler(), APIRoutes())
}

func WalkMethodRejection(t *testing.T, h http.Handler, routes []RouteInfo) {
	for _, rt := range routes {
		wrong := http.MethodPost
		if rt.Method == http.MethodPost {
			wrong = http.MethodGet
		}
		path := fillPattern(rt.Pattern)
		w := doReq(h, wrong, path, "", map[string]string{RequestIDHeader: "conf-" + rt.Name})
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s %s: status %d, want 405", rt.Name, wrong, path, w.Code)
			continue
		}
		if allow := w.Header().Get("Allow"); !strings.Contains(allow, rt.Method) {
			t.Errorf("%s: Allow %q does not include %s", rt.Name, allow, rt.Method)
		}
		env := decodeEnvelope(t, w)
		if env.Error.Code != ErrCodeMethodNotAllowed {
			t.Errorf("%s: code %q, want %q", rt.Name, env.Error.Code, ErrCodeMethodNotAllowed)
		}
		if env.Error.RequestID != "conf-"+rt.Name {
			t.Errorf("%s: envelope request_id %q does not echo the header", rt.Name, env.Error.RequestID)
		}
	}
}

// TestRequestIDEcho covers the three request-id cases: client-supplied
// ids echo, absent ids mint, and oversized ids are replaced.
func TestRequestIDEcho(t *testing.T) {
	WalkRequestIDEcho(t, NewController("owner").Handler())
}

func WalkRequestIDEcho(t *testing.T, h http.Handler) {
	w := doReq(h, http.MethodGet, "/api/v1/health", "", map[string]string{RequestIDHeader: "probe-77-call-3"})
	if got := w.Header().Get(RequestIDHeader); got != "probe-77-call-3" {
		t.Fatalf("client id not echoed: %q", got)
	}

	w = doReq(h, http.MethodGet, "/api/v1/health", "", nil)
	if got := w.Header().Get(RequestIDHeader); !strings.HasPrefix(got, "srv-") {
		t.Fatalf("no id supplied: got %q, want minted srv- id", got)
	}

	w = doReq(h, http.MethodGet, "/api/v1/health", "", map[string]string{RequestIDHeader: strings.Repeat("x", 200)})
	if got := w.Header().Get(RequestIDHeader); !strings.HasPrefix(got, "srv-") {
		t.Fatalf("oversized id accepted verbatim: %q", got)
	}
}

// TestErrorEnvelopeOnEveryErrorPath samples the distinct error paths
// (404 unknown path, 404 missing resource and its results, 400 bad query,
// 400 bad long-poll wait, 405) and requires the envelope on each.
func TestErrorEnvelopeOnEveryErrorPath(t *testing.T) {
	WalkErrorEnvelope(t, NewController("owner").Handler(), "/api/v1/probes")
}

// WalkErrorEnvelope takes the path of a GET-only route the tier serves,
// for the 405 case.
func WalkErrorEnvelope(t *testing.T, h http.Handler, getOnlyPath string) {
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodGet, "/api/v2/nope", "", http.StatusNotFound, ErrCodeNotFound},
		{http.MethodGet, "/api/v1/experiments/ghost", "", http.StatusNotFound, ErrCodeNotFound},
		{http.MethodGet, "/api/v1/experiments/ghost/results", "", http.StatusNotFound, ErrCodeNotFound},
		{http.MethodPost, "/api/v1/experiments/ghost/approve", "", http.StatusNotFound, ErrCodeNotFound},
		{http.MethodPost, "/api/v1/experiments/ghost/reject", "", http.StatusNotFound, ErrCodeNotFound},
		{http.MethodPost, "/api/v1/probes/register", `{"id":"p2","asn":1,"country":"NG","has_wired":false} {"garbage"`, http.StatusBadRequest, ErrCodeBadRequest},
		{http.MethodPost, "/api/v1/probes/sync?wait=banana", `{"probe_id": "p1"}`, http.StatusBadRequest, ErrCodeBadRequest},
		{http.MethodGet, "/api/v1/debug/traces?slowest=-2", "", http.StatusBadRequest, ErrCodeBadRequest},
		{http.MethodDelete, getOnlyPath, "", http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed},
	}
	for _, tc := range cases {
		w := doReq(h, tc.method, tc.path, tc.body, nil)
		if w.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d (body=%q)", tc.method, tc.path, w.Code, tc.status, w.Body.String())
			continue
		}
		if env := decodeEnvelope(t, w); env.Error.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, env.Error.Code, tc.code)
		}
	}
}

// TestRejectRoute drives experiment_reject: a pending experiment is
// rejected, and again without error, and cannot then be approved; an
// approved one cannot be rejected; an unknown one is 404.
func TestRejectRoute(t *testing.T) {
	WalkReject(t, NewController("owner").Handler(), "owner")
}

// WalkReject takes an owner the tier trusts; it must not trust "stranger".
func WalkReject(t *testing.T, h http.Handler, trusted string) {
	doReq(h, http.MethodPost, "/api/v1/probes/register", `{"id":"p1","asn":36924,"country":"RW","has_wired":false}`, nil)
	submit := func(owner string) string {
		w := doReq(h, http.MethodPost, "/api/v1/experiments", `{"owner":"`+owner+`","description":"d","assignments":[{"ProbeID":"p1","Task":{"id":"","experiment":"","kind":"ping"}}]}`, nil)
		var exp Experiment
		if err := json.Unmarshal(w.Body.Bytes(), &exp); w.Code != http.StatusOK || err != nil {
			t.Fatalf("submit as %s: %d %s", owner, w.Code, w.Body)
		}
		return exp.ID
	}
	pending, approved := submit("stranger"), submit(trusted)
	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/api/v1/experiments/" + pending + "/reject", http.StatusOK, ""},
		{"/api/v1/experiments/" + pending + "/reject", http.StatusOK, ""},
		{"/api/v1/experiments/" + pending + "/approve", http.StatusBadRequest, ErrCodeBadRequest},
		{"/api/v1/experiments/" + approved + "/reject", http.StatusBadRequest, ErrCodeBadRequest},
		{"/api/v1/experiments/ghost/reject", http.StatusNotFound, ErrCodeNotFound},
	} {
		w := doReq(h, http.MethodPost, tc.path, "", nil)
		switch {
		case w.Code != tc.status:
			t.Errorf("POST %s: %d %s, want %d", tc.path, w.Code, w.Body, tc.status)
		case tc.code != "":
			if env := decodeEnvelope(t, w); env.Error.Code != tc.code {
				t.Errorf("POST %s: code %q, want %q", tc.path, env.Error.Code, tc.code)
			}
		case w.Body.String() != `{"status":"rejected"}`+"\n":
			t.Errorf("POST %s: body %q", tc.path, w.Body)
		}
	}
	var exp Experiment
	w := doReq(h, http.MethodGet, "/api/v1/experiments/"+pending, "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &exp); err != nil || exp.Status != StatusRejected {
		t.Fatalf("GET a rejected experiment: %d %s", w.Code, w.Body)
	}
}

// TestEveryRouteInMetrics hits each table route once with its own
// method, then requires a histogram series tagged with every route name
// in the /metrics exposition.
func TestEveryRouteInMetrics(t *testing.T) {
	// The mutator and store instrumentation must surface too.
	WalkEveryRouteInMetrics(t, NewController("owner").Handler(), APIRoutes(),
		"obs_mutator_seconds", "obs_store_seconds", "obs_pipeline_events_total")
}

// WalkEveryRouteInMetrics also requires the tier's own metric families.
func WalkEveryRouteInMetrics(t *testing.T, h http.Handler, routes []RouteInfo, families ...string) {
	for _, rt := range routes {
		body := ""
		if rt.Method == http.MethodPost {
			body = "{}"
		}
		doReq(h, rt.Method, fillPattern(rt.Pattern), body, nil) // status irrelevant: latency is observed either way
	}
	w := doReq(h, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := w.Body.String()
	for _, rt := range routes {
		series := fmt.Sprintf(`obs_http_request_seconds_count{route=%q}`, rt.Name)
		if !strings.Contains(text, series) {
			t.Errorf("route %s missing from /metrics (want %s)", rt.Name, series)
		}
	}
	for _, family := range families {
		if !strings.Contains(text, family) {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
}

// TestMetricsDeterministicOrder requires two scrapes to list series in
// the same order (the exposition is sorted, not map-ordered).
func TestMetricsDeterministicOrder(t *testing.T) {
	c := NewController("owner")
	h := c.Handler()
	names := func(text string) []string {
		var out []string
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			out = append(out, strings.SplitN(line, " ", 2)[0])
		}
		return out
	}
	a := names(doReq(h, http.MethodGet, "/metrics", "", nil).Body.String())
	b := names(doReq(h, http.MethodGet, "/metrics", "", nil).Body.String())
	if len(a) == 0 {
		t.Fatal("empty exposition")
	}
	// The second scrape may add the metrics route's own series values but
	// never reorder; compare the shared prefix of series names.
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			t.Fatalf("series order changed between scrapes: %q vs %q at %d", a[i], b[i], i)
		}
	}
}

// TestListEndpointsPageShape requires the {items, next_cursor} shape on
// list endpoints, with items present (not null) even when empty.
func TestListEndpointsPageShape(t *testing.T) {
	c := NewController("owner")
	h := c.Handler()
	WalkPageShape(t, h, "/api/v1/probes")

	if err := c.RegisterProbe(ProbeInfo{ID: "p1", ASN: 1, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	var pg struct {
		Items      []ProbeInfo `json:"items"`
		NextCursor string      `json:"next_cursor"`
	}
	w := doReq(h, http.MethodGet, "/api/v1/probes", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &pg); err != nil {
		t.Fatal(err)
	}
	if len(pg.Items) != 1 || pg.Items[0].ID != "p1" {
		t.Fatalf("probes page: %+v", pg)
	}

	WalkPageShape(t, h, "/api/v1/debug/traces?slowest=3")
}

// WalkPageShape requires each list endpoint to answer 200 with items
// present and not null.
func WalkPageShape(t *testing.T, h http.Handler, paths ...string) {
	for _, path := range paths {
		w := doReq(h, http.MethodGet, path, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.Code)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if items, ok := raw["items"]; !ok || string(items) == "null" {
			t.Fatalf("%s: items missing or null: %s", path, w.Body.String())
		}
	}
}

// TestQueryOps runs the query route's op table against a controller.
func TestQueryOps(t *testing.T) {
	WalkQueryOps(t, NewController("owner").Handler())
}

// WalkQueryOps loads a few results through the tier's own probe routes
// and requires every op of /api/v1/query to answer them: aggregate (also
// as the default) and scan in their documented shapes, fold with a
// partial that merges and reports to exactly the aggregate, and an
// unknown op with a 400 that names every op.
func WalkQueryOps(t *testing.T, h http.Handler) {
	post := func(path, body string) []byte {
		t.Helper()
		w := doReq(h, http.MethodPost, path, body, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	var asg []string
	for i, country := range []string{"KE", "NG", "KE", "ZA"} {
		post("/api/v1/probes/register", fmt.Sprintf(`{"id": "q%d", "asn": %d, "country": %q}`, i, 64500+i%2, country))
		asg = append(asg, fmt.Sprintf(`{"ProbeID": "q%d", "Task": {"kind": "ping"}}, {"ProbeID": "q%d", "Task": {"kind": "websteps"}}`, i, i))
	}
	post("/api/v1/experiments", `{"owner": "owner", "description": "ops", "assignments": [`+strings.Join(asg, ",")+`]}`)
	for i := 0; i < 4; i++ {
		var lease SyncResponse
		if err := json.Unmarshal(post("/api/v1/probes/sync", fmt.Sprintf(`{"probe_id": "q%d"}`, i)), &lease); err != nil || len(lease.Tasks) != 2 {
			t.Fatalf("lease for q%d: %d tasks, err %v", i, len(lease.Tasks), err)
		}
		var rs []string
		for j, task := range lease.Tasks {
			rs = append(rs, fmt.Sprintf(`{"task_id": %q, "experiment": %q, "probe_id": "q%d", "kind": %q, "ok": %v, "rtt_ms": %v, "verdict": %q}`,
				task.ID, task.Experiment, i, task.Kind, (i+j)%3 != 0, 10+float64(i*7+j)/3, []string{"", "dns_blocked"}[j]))
		}
		post("/api/v1/probes/sync", fmt.Sprintf(`{"probe_id": "q%d", "max": -1, "results": [%s]}`, i, strings.Join(rs, ",")))
	}

	get := func(query string, wantStatus int) []byte {
		t.Helper()
		w := doReq(h, http.MethodGet, "/api/v1/query?"+query, "", nil)
		if w.Code != wantStatus {
			t.Fatalf("GET /api/v1/query?%s: status %d, want %d (body=%s)", query, w.Code, wantStatus, w.Body)
		}
		return w.Body.Bytes()
	}
	for _, groupBy := range []string{"", "country", "country_asn", "verdict"} {
		agg := get("op=aggregate&group_by="+groupBy, http.StatusOK)
		if def := get("group_by="+groupBy, http.StatusOK); string(def) != string(agg) {
			t.Fatalf("group %q: no op answers\n %s, op=aggregate\n %s", groupBy, def, agg)
		}
		var want store.AggReport
		if err := json.Unmarshal(agg, &want); err != nil || want.Matched != 8 || len(want.Groups) == 0 {
			t.Fatalf("group %q: aggregate %s (err %v), want 8 matched", groupBy, agg, err)
		}
		part := new(store.Folder)
		if err := json.Unmarshal(get("op=fold&group_by="+groupBy, http.StatusOK), part); err != nil {
			t.Fatal(err)
		}
		merged, err := store.NewFolder(groupBy)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatalf("group %q: op=fold's answer does not merge: %v", groupBy, err)
		}
		if got := merged.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("group %q: op=fold reports\n %+v, op=aggregate\n %+v", groupBy, got, want)
		}
	}
	var pg struct {
		Items []store.Record `json:"items"`
	}
	if err := json.Unmarshal(get("op=scan&kind=ping", http.StatusOK), &pg); err != nil || len(pg.Items) != 4 {
		t.Fatalf("op=scan&kind=ping: %d records, err %v", len(pg.Items), err)
	}
	for _, bad := range []string{"op=fold&group_by=continent", "op=fold&asn=x"} {
		get(bad, http.StatusBadRequest)
	}
	w := doReq(h, http.MethodGet, "/api/v1/query?op=sum", "", nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("op=sum: status %d, want 400", w.Code)
	}
	msg := decodeEnvelope(t, w).Error.Message
	for _, op := range []string{"aggregate", "scan", "fold"} {
		if !strings.Contains(msg, op) {
			t.Errorf("the unknown-op error %q does not name op %s", msg, op)
		}
		if !strings.Contains(queryParamDocs()[0].Doc, op) {
			t.Errorf("API.md's op parameter does not name op %s", op)
		}
	}
}

// TestTraceSpanNesting drives a durable controller and requires the
// full span chain handler → mutator → journal.append in the published
// trace.
func TestTraceSpanNesting(t *testing.T) {
	c, err := Recover(t.TempDir(), DurabilityConfig{Trusted: []string{"owner"}, SnapshotEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handler()

	w := doReq(h, http.MethodPost, "/api/v1/probes/register",
		`{"id": "p1", "asn": 1, "country": "RW"}`,
		map[string]string{RequestIDHeader: "trace-me"})
	if w.Code != http.StatusOK {
		t.Fatalf("register: status %d body=%s", w.Code, w.Body.String())
	}

	w = doReq(h, http.MethodGet, "/api/v1/debug/traces?slowest=50", "", nil)
	var pg struct {
		Items []obs.TraceView `json:"items"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &pg); err != nil {
		t.Fatal(err)
	}
	var tr *obs.TraceView
	for i := range pg.Items {
		if pg.Items[i].RequestID == "trace-me" {
			tr = &pg.Items[i]
		}
	}
	if tr == nil {
		t.Fatalf("register trace not in ring: %+v", pg.Items)
	}
	if tr.Route != "probe_register" || tr.Status != http.StatusOK {
		t.Fatalf("trace mislabeled: %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "handler" {
		t.Fatalf("root span: %+v", tr.Spans)
	}
	var mutator *obs.SpanView
	for i := range tr.Spans[0].Children {
		if tr.Spans[0].Children[i].Name == "mutator:probe_register" {
			mutator = &tr.Spans[0].Children[i]
		}
	}
	if mutator == nil {
		t.Fatalf("no mutator span under handler: %+v", tr.Spans[0].Children)
	}
	found := false
	for _, ch := range mutator.Children {
		if ch.Name == "journal.append" {
			found = true
			for _, g := range ch.Children {
				if g.Name != "journal.fsync" {
					t.Fatalf("unexpected span under journal.append: %+v", g)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no journal.append span under mutator: %+v", mutator.Children)
	}
}

// TestTraceRingBounded hammers the handler from many goroutines and
// requires the ring to stay at its bound. Run under -race this also
// exercises the ring's synchronization.
func TestTraceRingBounded(t *testing.T) {
	c := NewController("owner")
	WalkTraceRingBounded(t, c.Handler())
	if got := c.ring.Len(); got != DefaultTraceRing {
		t.Fatalf("ring length %d, want bound %d", got, DefaultTraceRing)
	}
	if got := len(c.ring.Slowest(10)); got != 10 {
		t.Fatalf("Slowest(10) returned %d", got)
	}
}

// WalkTraceRingBounded reads the ring back through the tier's own
// debug_traces route (slowest=0 returns every held trace).
func WalkTraceRingBounded(t *testing.T, h http.Handler) {
	var wg sync.WaitGroup
	const workers, per = 8, 2 * DefaultTraceRing / 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				doReq(h, http.MethodGet, "/api/v1/health", "", nil)
			}
		}()
	}
	wg.Wait()
	var pg struct {
		Items []obs.TraceView `json:"items"`
	}
	w := doReq(h, http.MethodGet, "/api/v1/debug/traces?slowest=0", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &pg); err != nil {
		t.Fatal(err)
	}
	if len(pg.Items) != DefaultTraceRing {
		t.Fatalf("debug_traces holds %d traces, want bound %d", len(pg.Items), DefaultTraceRing)
	}
}
