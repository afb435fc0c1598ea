package federation

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// The coordinator's HTTP surface must be indistinguishable from a
// single controller's to the existing client — until a shard dies,
// when clients see 503 shard_unavailable (with Retry-After, without
// tripping their breaker) on that shard's keys and degraded partial
// query results elsewhere.

func newHTTPHarness(t *testing.T, n int) (*core.Client, *Coordinator, []*LocalShard) {
	t.Helper()
	c, shards := newHarness(t, n, "", testConfig())
	return serveClient(t, c.Handler(), 7), c, shards
}

// serveClient serves h on a socket and returns a client for it.
func serveClient(t *testing.T, h http.Handler, seed int64) *core.Client {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	cl := core.NewClientSeeded(srv.URL, seed)
	cl.Sleep = func(time.Duration) {} // no real sleeping in retries
	return cl
}

// clLease, clUpload and clHeartbeat are the partial sync rounds the tests
// drive a probe's client through by hand.

func clLease(cl *core.Client, probeID string, max int) ([]probes.Task, error) {
	resp, err := cl.Sync(core.SyncRequest{ProbeID: probeID, Max: max}, 0)
	return resp.Tasks, err
}

func clUpload(cl *core.Client, probeID string, rs []probes.Result) error {
	_, err := cl.Sync(core.SyncRequest{ProbeID: probeID, Results: rs, Max: -1}, 0)
	return err
}

func clHeartbeat(cl *core.Client, probeID string) error {
	return clUpload(cl, probeID, nil)
}

// queryOpCounter wraps a shard controller's handler and counts, per op,
// what its /api/v1/query served.
type queryOpCounter struct {
	h  http.Handler
	mu sync.Mutex
	n  map[string]int
}

func (q *queryOpCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/query" {
		q.mu.Lock()
		q.n[r.URL.Query().Get("op")]++
		q.mu.Unlock()
	}
	q.h.ServeHTTP(w, r)
}

// take returns the counts so far and starts over.
func (q *queryOpCounter) take() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.n
	q.n = map[string]int{}
	return n
}

// remoteShard is one controller behind its own socket, as a coordinator
// in obsd -coordinator mode reaches it.
type remoteShard struct {
	srv    *httptest.Server
	cl     *core.Client // straight to the shard, past the coordinator
	served *queryOpCounter
}

// newRemoteCoordinator builds a coordinator over n HTTPShards.
func newRemoteCoordinator(t *testing.T, n int) (*Coordinator, []remoteShard) {
	t.Helper()
	c, err := New("", testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	shards := make([]remoteShard, n)
	for i := range shards {
		served := &queryOpCounter{h: core.NewController(testOwner).Handler(), n: map[string]int{}}
		srv := httptest.NewServer(served)
		t.Cleanup(srv.Close)
		cl := core.NewClientSeeded(srv.URL, int64(i))
		cl.Sleep = func(time.Duration) {} // no real sleeping in retries
		shards[i] = remoteShard{srv, cl, served}
		if err := c.AddShard(fmt.Sprintf("shard-%d", i), NewHTTPShard(cl)); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
	}
	return c, shards
}

// newRemoteHarness is newHTTPHarness over HTTPShards.
func newRemoteHarness(t *testing.T, n int) *core.Client {
	t.Helper()
	c, _ := newRemoteCoordinator(t, n)
	return serveClient(t, c.Handler(), 7)
}

// TestHTTPEndToEndFlow drives the same flow through a coordinator over
// in-process shards and one over remote shards. A remote shard's partial
// fold crosses the wire as JSON, and must lose nothing on the way: the
// two tiers answer the grouped aggregate with the same bytes.
func TestHTTPEndToEndFlow(t *testing.T) {
	var local, remote []byte
	t.Run("local shards", func(t *testing.T) {
		cl, _, _ := newHTTPHarness(t, 3)
		local = httpEndToEndFlow(t, cl)
	})
	t.Run("remote shards", func(t *testing.T) { remote = httpEndToEndFlow(t, newRemoteHarness(t, 3)) })
	if len(local) == 0 || !bytes.Equal(local, remote) {
		t.Fatalf("the aggregate over remote shards is not the one over local shards:\n local  %s\n remote %s", local, remote)
	}
}

// httpEndToEndFlow returns the body of the flow's final grouped aggregate.
func httpEndToEndFlow(t *testing.T, cl *core.Client) []byte {
	ps := testProbes(8)
	for _, p := range ps {
		if err := cl.Register(p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	exp, err := cl.Submit(testOwner, "http flow", testAssignments(ps, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if exp.Status != core.StatusApproved {
		t.Fatalf("status %s, want approved", exp.Status)
	}
	done := 0
	for _, p := range ps {
		for {
			tasks, err := clLease(cl, p.ID, 4)
			if err != nil {
				t.Fatalf("LeaseTasks: %v", err)
			}
			if len(tasks) == 0 {
				break
			}
			rs := make([]probes.Result, 0, len(tasks))
			for _, task := range tasks {
				rs = append(rs, probes.Result{
					TaskID: task.ID, Experiment: task.Experiment,
					ProbeID: p.ID, Kind: task.Kind, OK: true, RTTms: 12 + float64(done+len(rs))/7,
				})
			}
			if err := clUpload(cl, p.ID, rs); err != nil {
				t.Fatalf("SubmitResults: %v", err)
			}
			done += len(rs)
			// A redelivered batch is answered with what the shard recorded.
			ack, err := cl.Sync(core.SyncRequest{ProbeID: p.ID, Results: rs, Max: -1}, 0)
			if err != nil || ack.Accepted != 0 || ack.Received != len(rs) {
				t.Fatalf("redelivered batch: %+v (err %v), want accepted 0 received %d", ack, err, len(rs))
			}
			if err := clHeartbeat(cl, p.ID); err != nil {
				t.Fatalf("Heartbeat: %v", err)
			}
		}
	}
	if done != len(ps) {
		t.Fatalf("completed %d tasks, want %d", done, len(ps))
	}
	// Query surface: scan + aggregate with clean (non-degraded) meta.
	recs, _, meta, err := cl.QueryScan(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil {
		t.Fatalf("QueryScan: %v", err)
	}
	if meta.Degraded || len(recs) != done {
		t.Fatalf("scan: degraded=%v len=%d want %d", meta.Degraded, len(recs), done)
	}
	rep, meta, err := cl.QueryAggregate(store.Filter{}, store.GroupCountry)
	if err != nil || meta.Degraded {
		t.Fatalf("QueryAggregate: err=%v degraded=%v", err, meta.Degraded)
	}
	if rep.Matched != int64(done) {
		t.Fatalf("aggregate matched %d, want %d", rep.Matched, done)
	}
	// Experiment results page maps records to bare results.
	rs, err := cl.Results(exp.ID)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if len(rs) != done {
		t.Fatalf("experiment results %d, want %d", len(rs), done)
	}
	// Shard map reports three live shards at epoch 0.
	infos, err := cl.ShardMap()
	if err != nil {
		t.Fatalf("ShardMap: %v", err)
	}
	if len(infos) != 3 {
		t.Fatalf("shard map has %d entries, want 3", len(infos))
	}
	for _, si := range infos {
		if si.Epoch != 0 || si.Health != string(core.ProbeAlive) {
			t.Fatalf("shard %+v, want epoch 0 alive", si)
		}
	}
	if _, err := cl.Health(); err != nil {
		t.Fatalf("Health: %v", err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	resp, err := http.Get(cl.Base + "/api/v1/query?op=aggregate&group_by=country_asn")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("grouped aggregate: status %d, err %v", resp.StatusCode, err)
	}
	return body
}

// TestRemoteAggregateShipsNoRecords: a federated aggregate over remote
// shards asks each of them for its partial fold and nothing else — no
// scan, so no store.Record crosses the wire — and still answers exactly
// what one store holding every shard's records would; with a shard dead,
// exactly what the responsive shards' records would.
func TestRemoteAggregateShipsNoRecords(t *testing.T) {
	c, shards := newRemoteCoordinator(t, 3)
	pumpResults(t, c, testProbes(12), 3)

	// oracle is one store holding the given shards' records, each read
	// straight from its shard.
	oracle := func(from []remoteShard) *store.Store {
		st := store.NewMemory(store.Options{})
		for _, sh := range from {
			items, _, _, err := sh.cl.QueryScan(store.Filter{}, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range itemRecords(t, items) {
				r.Seq = 0
				if err := st.Append(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return st
	}
	check := func(from []remoteShard, wantDegraded bool) {
		t.Helper()
		want := oracle(from)
		for _, sh := range shards {
			sh.served.take()
		}
		for _, gb := range []string{store.GroupNone, store.GroupCountryASN} {
			got, meta, err := c.Aggregate(store.AggQuery{GroupBy: gb})
			if err != nil || meta.Degraded != wantDegraded {
				t.Fatalf("group %s: err %v, meta %+v, want degraded %v", gb, err, meta, wantDegraded)
			}
			wantRep, err := want.Aggregate(store.AggQuery{GroupBy: gb})
			if err != nil || got.Matched == 0 || !reflect.DeepEqual(got, wantRep) {
				t.Fatalf("group %s: federated aggregate diverges from the oracle (err %v):\n fed  %+v\n want %+v", gb, err, got, wantRep)
			}
		}
		for i, sh := range from {
			served := sh.served.take()
			if served["fold"] < 2 || len(served) != 1 {
				t.Fatalf("shard %d's /query served %v during two aggregates, want op=fold only", i, served)
			}
		}
	}
	check(shards, false)
	shards[1].srv.Close()
	check([]remoteShard{shards[0], shards[2]}, true)
}

func TestHTTPDeadShardIs503NotBreakerFood(t *testing.T) {
	cl, _, shards := newHTTPHarness(t, 2)
	cl.BreakerThreshold = 1 // hair trigger: any transport failure would open it
	ps := testProbes(8)
	for _, p := range ps {
		if err := cl.Register(p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	for _, ls := range shards {
		ls.Kill()
	}
	var apiErr *core.APIError
	for _, p := range ps {
		_, err := clLease(cl, p.ID, 4)
		if err == nil {
			t.Fatalf("lease for %s succeeded with every shard dead", p.ID)
		}
		if !errors.As(err, &apiErr) {
			t.Fatalf("lease error %v is not an APIError", err)
		}
		if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != core.ErrCodeShardUnavailable {
			t.Fatalf("got %d %s, want 503 %s", apiErr.Status, apiErr.Code, core.ErrCodeShardUnavailable)
		}
		if apiErr.RetryAfter <= 0 {
			t.Fatalf("503 carried RetryAfter %d, want > 0", apiErr.RetryAfter)
		}
	}
	ctrs := cl.ResilienceCounters()
	if ctrs["breaker_open_total"] != 0 {
		t.Fatalf("server-side 503s opened the client breaker: %v", ctrs)
	}
	if ctrs["retry_after_honored"] == 0 {
		t.Fatalf("client never honored the coordinator's Retry-After: %v", ctrs)
	}
}

func TestHTTPDegradedQueryAnnotation(t *testing.T) {
	cl, c, shards := newHTTPHarness(t, 3)
	ps := testProbes(12)
	exp, accepted := pumpResults(t, c, ps, 1)
	shards[1].Kill()
	recs, _, meta, err := cl.QueryScan(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil {
		t.Fatalf("degraded scan must be 200, got %v", err)
	}
	if !meta.Degraded || len(meta.ShardsMissing) != 1 || meta.ShardsMissing[0] != "shard-1" {
		t.Fatalf("meta = %+v, want degraded with shard-1 missing", meta)
	}
	if len(recs) >= accepted {
		t.Fatalf("degraded scan returned %d records, want < %d", len(recs), accepted)
	}
	if _, meta, err := cl.QueryAggregate(store.Filter{}, store.GroupNone); err != nil || !meta.Degraded {
		t.Fatalf("degraded aggregate: err=%v meta=%+v", err, meta)
	}
	// Health degrades but stays 200.
	h, err := cl.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status == "ok" {
		t.Fatal("health reports ok with a dead shard")
	}
}

func TestHTTPErrorSurface(t *testing.T) {
	cl, _, _ := newHTTPHarness(t, 2)
	var apiErr *core.APIError
	// Unknown federated experiment is a 404.
	if _, err := cl.Experiment("fexp-9999"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown experiment: %v", err)
	}
	if _, err := cl.Results("fexp-9999"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown experiment results: %v", err)
	}
	// Wrong method gets 405 + Allow; bad op and bad params get 400.
	srv := httptest.NewServer(newHarnessHandler(t))
	defer srv.Close()
	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{http.MethodDelete, "/api/v1/experiments", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/v1/query?op=frobnicate", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/query?op=scan&limit=-2", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/query?op=scan&asn=xyz", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/query?op=scan&cursor=garbage", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/nope", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if tc.wantStatus == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
			t.Fatalf("%s %s: 405 without Allow header", tc.method, tc.path)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Fatalf("%s %s: response without request id", tc.method, tc.path)
		}
	}
}

func newHarnessHandler(t *testing.T) http.Handler {
	t.Helper()
	c, _ := newHarness(t, 2, "", testConfig())
	return c.Handler()
}

func TestHTTPAdmissionSheds(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = core.AdmissionConfig{
		RouteRates: map[string]core.RateLimit{"stats": {PerTick: 1, Burst: 2}},
	}
	c, _ := newHarness(t, 2, "", cfg)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	shed := 0
	for i := 0; i < 10; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/stats")
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("admission gate never shed low-priority traffic")
	}
	// Tick refills the gate.
	c.Tick(1)
	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatalf("stats after refill: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill stats status %d, want 200", resp.StatusCode)
	}
}

// TestShardCallsCarryNoRequestSpan: a coordinator calls its shards with
// context.Background(), never the request's — a request's span tree is
// built by one goroutine, and every shard attempt and hedge runs on its
// own. With a hedge behind nearly every call, traced requests of every
// kind stay race-free under -race, and the coordinator's trace trees hold
// no mutator span: those belong to the shards.
func TestShardCallsCarryNoRequestSpan(t *testing.T) {
	cfg := testConfig()
	cfg.HedgeAfter = time.Nanosecond
	c, _ := newHarness(t, 2, "", cfg)
	cl := serveClient(t, c.Handler(), 7)
	ps := testProbes(6)
	for _, p := range ps {
		if err := cl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Submit(testOwner, "traced", testAssignments(ps, 2)); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		tasks, err := clLease(cl, p.ID, 0)
		if err != nil || len(tasks) != 2 {
			t.Fatalf("lease for %s: %d tasks, err %v", p.ID, len(tasks), err)
		}
		var rs []probes.Result
		for _, task := range tasks {
			rs = append(rs, probes.Result{TaskID: task.ID, Experiment: task.Experiment, ProbeID: p.ID, Kind: task.Kind, OK: true, RTTms: 9})
		}
		if err := clUpload(cl, p.ID, rs); err != nil {
			t.Fatal(err)
		}
	}
	if recs, _, _, err := cl.QueryScan(store.Filter{}, 0, ""); err != nil || len(recs) != 2*len(ps) {
		t.Fatalf("scan: %d records, err %v", len(recs), err)
	}
	if _, _, err := cl.QueryAggregate(store.Filter{}, store.GroupCountry); err != nil {
		t.Fatal(err)
	}
	if c.Counters()["fed_hedges"] == 0 {
		t.Fatal("no call was hedged")
	}
	resp, err := http.Get(cl.Base + "/api/v1/debug/traces?slowest=256")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"probe_register", "experiment_submit", "probe_sync", "query"} {
		if !bytes.Contains(body, []byte(`"route":"`+route+`"`)) {
			t.Fatalf("no %s trace in the coordinator's ring: %s", route, body)
		}
	}
	if bytes.Contains(body, []byte("mutator:")) {
		t.Fatalf("a shard's mutator span reached the coordinator's traces: %s", body)
	}
}
