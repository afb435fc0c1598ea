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
				{http.MethodGet, "/api/v1/probes/p1/tasks", ``},
				{http.MethodPost, "/api/v1/probes/p1/results", `[]`},
				{http.MethodPost, "/api/v1/probes/p1/heartbeat", ``},
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

// TestUnregisteredProbeLeasesNothing: the legacy tasks and results
// routes answer an id the fleet book has never seen 404 not_found, as
// sync and heartbeat do, and journal nothing — even with tasks queued
// under that id (the parent granted them a journaled lease whose
// results it then refused).
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
			for _, tc := range []struct{ method, path, body string }{
				{http.MethodGet, "/api/v1/probes/ghost/tasks", ``},
				{http.MethodGet, "/api/v1/probes/ghost/tasks?max=1", ``},
				{http.MethodPost, "/api/v1/probes/ghost/results", `[]`},
				{http.MethodPost, "/api/v1/probes/ghost/results", result},
			} {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
				var env struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusNotFound || env.Error.Code != core.ErrCodeNotFound {
					t.Errorf("%s %s: %d %s, want 404 not_found", tc.method, tc.path, w.Code, w.Body)
				}
			}
			if got := ctrl.DurabilityCounters()["journal_records_appended"]; got != appended {
				t.Errorf("journal grew by %d records serving an unregistered probe", got-appended)
			}
			if n := ctrl.OutstandingLeases(); n != 0 {
				t.Errorf("%d leases granted to an unregistered probe", n)
			}
		})
	}
}
