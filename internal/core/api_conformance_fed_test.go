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

// TestStorageFaultIs503 closes the journal under a live handler: every
// mutating route must answer a valid request 503 unavailable +
// Retry-After (a server fault the client retries), not the handler's
// generic 400/404 — on a controller, and on a coordinator whose local
// shard is that controller.
func TestStorageFaultIs503(t *testing.T) {
	tiers := map[string]func(*core.Controller) http.Handler{
		"controller":  func(c *core.Controller) http.Handler { return c.Handler() },
		"coordinator": func(c *core.Controller) http.Handler { return newCoordinator(t, c).Handler() },
	}
	for tier, handlerOf := range tiers {
		t.Run(tier, func(t *testing.T) {
			ctrl, err := core.Recover(t.TempDir(), core.DurabilityConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()
			h := handlerOf(ctrl)
			post := func(path, body string) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				return w
			}
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
			for _, tc := range []struct{ path, body string }{
				{"/api/v1/probes/register", `{"id": "p2", "asn": 1, "country": "RW"}`},
				{"/api/v1/probes/sync", `{"probe_id": "p1"}`},
				{"/api/v1/probes/p1/results", `[]`},
				{"/api/v1/probes/p1/heartbeat", ``},
				{"/api/v1/experiments/" + exp.ID + "/approve", ``},
			} {
				w := post(tc.path, tc.body)
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
