package core_test

// The second tier's half of the API conformance suite: the walkers of
// api_conformance_test.go run over a federation coordinator's handler
// and table, and the checks that need both tiers at once (API.md, the
// storage-fault mapping) live here because this package may import
// internal/federation, which package core may not.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
)

// newCoordinator builds an in-memory coordinator over the given shard
// controllers.
func newCoordinator(t *testing.T, shards ...*core.Controller) *federation.Coordinator {
	t.Helper()
	c, err := federation.New("", federation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ctrl := range shards {
		if err := c.AddShard(fmt.Sprintf("shard-%d", i), federation.NewLocalShard(ctrl)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func coordinatorHandler(t *testing.T) http.Handler {
	return newCoordinator(t, core.NewController("owner"), core.NewController("owner"), core.NewController("owner")).Handler()
}

func TestCoordinatorConformance(t *testing.T) {
	routes := federation.APIRoutes()
	t.Run("MethodRejection", func(t *testing.T) { core.WalkMethodRejection(t, coordinatorHandler(t), routes) })
	t.Run("RequestIDEcho", func(t *testing.T) { core.WalkRequestIDEcho(t, coordinatorHandler(t)) })
	t.Run("ErrorEnvelope", func(t *testing.T) { core.WalkErrorEnvelope(t, coordinatorHandler(t), "/api/v1/shards") })
	t.Run("EveryRouteInMetrics", func(t *testing.T) {
		core.WalkEveryRouteInMetrics(t, coordinatorHandler(t), routes, "obs_fed_shard_seconds", "obs_fed_events_total")
	})
	t.Run("PageShape", func(t *testing.T) {
		core.WalkPageShape(t, coordinatorHandler(t), "/api/v1/shards", "/api/v1/query?op=scan", "/api/v1/debug/traces?slowest=3")
	})
	t.Run("TraceRingBounded", func(t *testing.T) { core.WalkTraceRingBounded(t, coordinatorHandler(t)) })
	t.Run("QueryOps", func(t *testing.T) { core.WalkQueryOps(t, coordinatorHandler(t)) })
	t.Run("Reject", func(t *testing.T) { core.WalkReject(t, coordinatorHandler(t), "owner") })
	t.Run("RejectOverRemoteShards", func(t *testing.T) { // verdicts cross the wire through Client.Reject
		srv := httptest.NewServer(core.NewController("owner").Handler())
		defer srv.Close()
		c := newCoordinator(t)
		if err := c.AddShard("shard-0", federation.NewHTTPShard(core.NewClient(srv.URL))); err != nil {
			t.Fatal(err)
		}
		core.WalkReject(t, c.Handler(), "owner")
	})
}

// TestAPIDocInSync fails when the committed API.md drifts from the route
// tables it is generated from.
func TestAPIDocInSync(t *testing.T) {
	disk, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatalf("API.md unreadable: %v", err)
	}
	if string(disk) != core.APIDocMarkdown(core.APIRoutes(), federation.APIRoutes()) {
		t.Fatal("API.md is stale: regenerate with `go run ./cmd/apidoc > API.md`")
	}
}

// bothTiers serves one durable controller directly and as the only
// (local) shard of a coordinator.
var bothTiers = map[string]func(*testing.T, *core.Controller) http.Handler{
	"controller":  func(_ *testing.T, c *core.Controller) http.Handler { return c.Handler() },
	"coordinator": func(t *testing.T, c *core.Controller) http.Handler { return newCoordinator(t, c).Handler() },
}

// TestStorageFaultIs503 closes the journal under a live handler: every
// mutating route must answer a valid request 503 unavailable +
// Retry-After (a server fault the client retries), not the handler's
// generic 400/404 — on a controller, and on a coordinator whose local
// shard is that controller.
func TestStorageFaultIs503(t *testing.T) {
	for tier, handlerOf := range bothTiers {
		t.Run(tier, func(t *testing.T) {
			ctrl, err := core.Recover(t.TempDir(), core.DurabilityConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()
			h := handlerOf(t, ctrl)
			do := func(method, path, body string) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
				return w
			}
			post := func(path, body string) *httptest.ResponseRecorder { return do(http.MethodPost, path, body) }
			if w := post("/api/v1/probes/register", `{"id": "p1", "asn": 1, "country": "RW"}`); w.Code != http.StatusOK {
				t.Fatalf("register: %d %s", w.Code, w.Body)
			}
			w := post("/api/v1/experiments", `{"owner": "stranger", "description": "d", "assignments": [{"ProbeID": "p1", "Task": {"kind": "ping"}}]}`)
			if w.Code != http.StatusOK {
				t.Fatalf("submit: %d %s", w.Code, w.Body)
			}
			var exp core.Experiment
			if err := json.Unmarshal(w.Body.Bytes(), &exp); err != nil {
				t.Fatal(err)
			}

			ctrl.BreakJournal()
			faults := 0
			for _, tc := range []struct{ method, path, body string }{
				{http.MethodPost, "/api/v1/probes/register", `{"id": "p2", "asn": 1, "country": "RW"}`},
				{http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1"}`},
				{http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1", "results": [], "max": -1}`},
				{http.MethodPost, "/api/v1/experiments/" + exp.ID + "/approve", ``},
			} {
				w := do(tc.method, tc.path, tc.body)
				if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
					t.Errorf("%s: status %d Retry-After %q, want 503 with Retry-After (body %s)",
						tc.path, w.Code, w.Header().Get("Retry-After"), w.Body)
					continue
				}
				var env struct {
					Error struct {
						Code      string `json:"code"`
						RequestID string `json:"request_id"`
					} `json:"error"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != core.ErrCodeUnavailable || env.Error.RequestID == "" {
					t.Errorf("%s: not an unavailable envelope: %s", tc.path, w.Body)
				}
				faults++
			}
			if got := ctrl.DurabilityCounters()["journal_append_errors"]; got < int64(faults) || faults == 0 {
				t.Fatalf("journal_append_errors = %d after %d faulted requests", got, faults)
			}
			// Validation still wins over the fault: nothing reaches the journal.
			if w := post("/api/v1/probes/sync", `{"probe_id": "ghost"}`); w.Code != http.StatusNotFound {
				t.Fatalf("unknown probe on a faulted controller: %d, want 404", w.Code)
			}
		})
	}
}

// TestUnregisteredProbeLeasesNothing: a sync round — lease ask or
// upload — from an id the fleet book has never seen is answered 404
// not_found and journals nothing, even with tasks queued under that id.
func TestUnregisteredProbeLeasesNothing(t *testing.T) {
	for tier, handlerOf := range bothTiers {
		t.Run(tier, func(t *testing.T) {
			ctrl, err := core.Recover(t.TempDir(), core.DurabilityConfig{Trusted: []string{"owner"}})
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()
			h := handlerOf(t, ctrl)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/experiments",
				strings.NewReader(`{"owner": "owner", "description": "d", "assignments": [{"ProbeID": "ghost", "Task": {"kind": "ping"}}]}`)))
			if w.Code != http.StatusOK {
				t.Fatalf("submit: %d %s", w.Code, w.Body)
			}
			var exp core.Experiment
			if err := json.Unmarshal(w.Body.Bytes(), &exp); err != nil {
				t.Fatal(err)
			}
			appended := ctrl.DurabilityCounters()["journal_records_appended"]
			result := fmt.Sprintf(`[{"task_id": %q, "experiment": %q, "probe_id": "ghost", "kind": "ping", "ok": true}]`,
				exp.Assignments[0].Task.ID, exp.Assignments[0].Task.Experiment)
			for _, body := range []string{
				`{"probe_id": "ghost"}`,
				`{"probe_id": "ghost", "max": 1}`,
				`{"probe_id": "ghost", "results": [], "max": -1}`,
				`{"probe_id": "ghost", "results": ` + result + `, "max": -1}`,
			} {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/probes/sync", strings.NewReader(body)))
				var env struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusNotFound || env.Error.Code != core.ErrCodeNotFound {
					t.Errorf("sync %s: %d %s, want 404 not_found", body, w.Code, w.Body)
				}
			}
			if got := ctrl.DurabilityCounters()["journal_records_appended"]; got != appended {
				t.Errorf("journal grew by %d records serving an unregistered probe", got-appended)
			}
			if n := ctrl.Stats().OutstandingLeases; n != 0 {
				t.Errorf("%d leases granted to an unregistered probe", n)
			}
		})
	}
}

// TestPinnedExperimentIDMustBeAddressable: SubmitRequest.ID is outside
// input that becomes a path segment of /experiments/{id} and the prefix
// of a lease key, so a pinned id is 1–128 bytes of [A-Za-z0-9._:-] or the
// submission is refused — by the one submit handler, on either tier.
func TestPinnedExperimentIDMustBeAddressable(t *testing.T) {
	for tier, handlerOf := range bothTiers {
		t.Run(tier, func(t *testing.T) {
			ctrl, err := core.Recover(t.TempDir(), core.DurabilityConfig{Trusted: []string{"owner"}})
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()
			h := handlerOf(t, ctrl)
			submit := func(id string) *httptest.ResponseRecorder {
				body, _ := json.Marshal(map[string]any{"id": id, "owner": "owner", "description": "d",
					"assignments": []map[string]any{{"ProbeID": "p1", "Task": map[string]string{"kind": "ping"}}}})
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/experiments", strings.NewReader(string(body))))
				return w
			}
			for _, bad := range []string{"a/b", "a b", "exp?", "é", "%2F", strings.Repeat("x", 129)} {
				if w := submit(bad); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), core.ErrCodeBadRequest) {
					t.Errorf("pinned id %q: %d %s, want 400 bad_request", bad, w.Code, w.Body)
				}
			}
			for _, good := range []string{"exp-0001", "fexp-0001", "A.b_c:d-9", strings.Repeat("x", 128)} {
				w := submit(good)
				var exp core.Experiment
				if err := json.Unmarshal(w.Body.Bytes(), &exp); err != nil || w.Code != http.StatusOK {
					t.Fatalf("pinned id %q: %d %s", good, w.Code, w.Body)
				}
				// The id the tier answered with (a coordinator mints its own) is reachable.
				w = httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/experiments/"+exp.ID, nil))
				if w.Code != http.StatusOK {
					t.Errorf("GET /experiments/%s after pinning %q: %d %s", exp.ID, good, w.Code, w.Body)
				}
			}
		})
	}
}

// TestTiersAnswerAlike drives one scripted request sequence against a
// durable controller served directly and against the same sequence
// served through a one-shard coordinator, and requires the two tiers to
// answer every request alike: status, error code, and body once each
// tier's own experiment ids are written <exp-N> (a controller mints
// exp-NNNN or takes the pinned id, a coordinator mints fexp-NNNN). The
// request id is sent, so both echo the same one.
func TestTiersAnswerAlike(t *testing.T) {
	type answer struct {
		step   string
		status int
		body   string
	}
	script := func(t *testing.T, h http.Handler) []answer {
		var answers []answer
		var exps []string // the ids this tier's submits answered, in order
		do := func(method, path, body string) *httptest.ResponseRecorder {
			r := httptest.NewRequest(method, path, strings.NewReader(body))
			r.Header.Set(core.RequestIDHeader, fmt.Sprintf("step-%d", len(answers)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if path == "/api/v1/experiments" && w.Code == http.StatusOK {
				var exp core.Experiment
				if err := json.Unmarshal(w.Body.Bytes(), &exp); err != nil {
					t.Fatalf("submit %s: %s", body, w.Body)
				}
				exps = append(exps, exp.ID)
			}
			norm := method + " " + path + "\n" + w.Body.String()
			for i, id := range exps {
				norm = strings.ReplaceAll(norm, id, fmt.Sprintf("<exp-%d>", i))
			}
			step, answered, _ := strings.Cut(norm, "\n")
			answers = append(answers, answer{step, w.Code, answered})
			return w
		}
		submit := func(body string) {
			if w := do(http.MethodPost, "/api/v1/experiments", body); w.Code != http.StatusOK {
				t.Fatalf("submit %s: %d %s", body, w.Code, w.Body)
			}
		}
		const assignments = `"assignments": [{"ProbeID": "p1", "Task": {"kind": "ping"}}, {"ProbeID": "p1", "Task": {"kind": "dns"}}]`

		do(http.MethodPost, "/api/v1/probes/register", `{"id": "p1", "asn": 36924, "country": "RW"}`)
		do(http.MethodPost, "/api/v1/probes/register", `{"id": `)
		do(http.MethodPost, "/api/v1/probes/register", `{"id": "`+strings.Repeat("x", core.MaxBodyBytes+1)+`"}`)

		submit(`{"request_id": "req-1", "owner": "owner", "description": "minted", ` + assignments + `}`)
		submit(`{"id": "pin.1", "owner": "stranger", "description": "pinned", ` + assignments + `}`)
		do(http.MethodPost, "/api/v1/experiments", `{"id": "a/b", "owner": "owner", "description": "bad id", `+assignments+`}`)
		submit(`{"request_id": "req-1", "owner": "owner", "description": "minted", ` + assignments + `}`)
		if last := exps[len(exps)-1]; last != exps[0] {
			t.Errorf("replayed request_id answered %s, the first submit %s", last, exps[0])
		}
		do(http.MethodPost, "/api/v1/experiments", `[]`)
		do(http.MethodPost, "/api/v1/experiments", `{"owner": "owner", "description": "empty", "assignments": []}`)

		for _, id := range []string{exps[1], "ghost"} {
			do(http.MethodGet, "/api/v1/experiments/"+id, ``)
			do(http.MethodPost, "/api/v1/experiments/"+id+"/approve", ``)
			do(http.MethodGet, "/api/v1/experiments/"+id+"/results", ``)
			do(http.MethodGet, "/api/v1/experiments/"+id+"/results?limit=-1", ``)
		}
		// Vetting a decided experiment the other way is the shard's refusal.
		do(http.MethodPost, "/api/v1/experiments/"+exps[1]+"/reject", ``)
		submit(`{"owner": "stranger", "description": "refused", ` + assignments + `}`)
		do(http.MethodPost, "/api/v1/experiments/"+exps[len(exps)-1]+"/reject", ``)
		do(http.MethodPost, "/api/v1/experiments/"+exps[len(exps)-1]+"/approve", ``)

		do(http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "ghost"}`)
		do(http.MethodPost, "/api/v1/probes/sync", `{}`)
		do(http.MethodPost, "/api/v1/probes/sync?wait=banana", `{"probe_id": "p1"}`)
		w := do(http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1", "max": 1}`)
		var lease core.SyncResponse
		if err := json.Unmarshal(w.Body.Bytes(), &lease); err != nil || len(lease.Tasks) != 1 {
			t.Fatalf("lease: %d %s", w.Code, w.Body)
		}
		upload := fmt.Sprintf(`{"probe_id": "p1", "max": -1, "results": [{"task_id": %q, "experiment": %q, "probe_id": "p1", "kind": "ping", "ok": true, "rtt_ms": 12}]}`,
			lease.Tasks[0].ID, lease.Tasks[0].Experiment)
		do(http.MethodPost, "/api/v1/probes/sync", upload)
		do(http.MethodPost, "/api/v1/probes/sync", upload) // a duplicate: accepted 0
		do(http.MethodPost, "/api/v1/probes/sync", strings.Replace(upload, lease.Tasks[0].ID, "no-such-task", 1))
		do(http.MethodGet, "/api/v1/experiments/"+exps[0]+"/results", ``)

		do(http.MethodGet, "/api/v1/query?op=aggregate&group_by=country", ``)
		do(http.MethodGet, "/api/v1/query?op=scan&limit=10", ``)
		do(http.MethodGet, "/api/v1/query?op=fold&group_by=asn&experiment="+exps[0], ``)
		do(http.MethodGet, "/api/v1/query?op=sum", ``)
		do(http.MethodGet, "/api/v1/query?group_by=continent", ``)

		// The three retired probe routes are gone from both tiers.
		for _, tc := range [][2]string{
			{http.MethodGet, "/api/v1/probes/p1/tasks"},
			{http.MethodPost, "/api/v1/probes/p1/results"},
			{http.MethodPost, "/api/v1/probes/p1/heartbeat"},
		} {
			if w := do(tc[0], tc[1], `[]`); w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), `"code":"not_found"`) {
				t.Errorf("%s %s: %d %s, want 404 not_found", tc[0], tc[1], w.Code, w.Body)
			}
		}
		return answers
	}

	answers := make(map[string][]answer, len(bothTiers))
	for tier, handlerOf := range bothTiers {
		ctrl, err := core.Recover(t.TempDir(), core.DurabilityConfig{Trusted: []string{"owner"}})
		if err != nil {
			t.Fatal(err)
		}
		defer ctrl.Close()
		answers[tier] = script(t, handlerOf(t, ctrl))
	}
	ctl, fed := answers["controller"], answers["coordinator"]
	if len(ctl) != len(fed) {
		t.Fatalf("the controller answered %d requests, the coordinator %d", len(ctl), len(fed))
	}
	errorCode := func(body string) string {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.Unmarshal([]byte(body), &env) // a success body has no error member
		return env.Error.Code
	}
	for i := range ctl {
		switch {
		case ctl[i].status != fed[i].status || errorCode(ctl[i].body) != errorCode(fed[i].body):
			t.Errorf("step %d, %s: a controller answers %d %q, a coordinator %d %q\n%s\n%s", i, ctl[i].step,
				ctl[i].status, errorCode(ctl[i].body), fed[i].status, errorCode(fed[i].body), ctl[i].body, fed[i].body)
		case ctl[i].body != fed[i].body:
			t.Errorf("step %d, %s (%d): the tiers' bodies differ\ncontroller:  %scoordinator: %s", i, ctl[i].step, ctl[i].status, ctl[i].body, fed[i].body)
		}
	}
}
