package federation

// sync_test.go covers the batched hot path through the coordinator:
// ring-routed sync rounds, unknown probes as 404, and the dead-shard
// contract — 503 shard_unavailable with Retry-After while the probe's
// spool keeps the undelivered batch intact for the retry.

import (
	"errors"
	"net/http"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/spool"
)

// TestFederatedSyncRoutesByRing drives a fleet through coordinator-side
// Sync rounds only — no per-call lease/submit/heartbeat endpoints — and
// checks every result lands on the probe's owning shard with nothing
// lost or duplicated.
func TestFederatedSyncRoutesByRing(t *testing.T) {
	c, shards := newHarness(t, 3, "", testConfig())
	ps := testProbes(12)
	for _, p := range ps {
		if err := c.Register(ctx, p); err != nil {
			t.Fatalf("Register(%s): %v", p.ID, err)
		}
	}
	const perProbe = 5
	if _, err := submit(c, "req-sync", "sync workload", testAssignments(ps, perProbe)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	delivered := 0
	for _, p := range ps {
		var outbox []probes.Result
		for {
			resp, err := c.Sync(ctx, core.SyncRequest{ProbeID: p.ID, Results: outbox, Max: 2}, 0)
			if err != nil {
				t.Fatalf("Sync(%s): %v", p.ID, err)
			}
			delivered += resp.Accepted
			if len(resp.Tasks) == 0 && len(outbox) == 0 {
				break
			}
			outbox = outbox[:0]
			for _, task := range resp.Tasks {
				outbox = append(outbox, probes.Result{
					TaskID: task.ID, Experiment: task.Experiment,
					ProbeID: p.ID, Kind: task.Kind, OK: true, RTTms: 12,
				})
			}
		}
	}
	if want := len(ps) * perProbe; delivered != want {
		t.Fatalf("delivered %d results, want %d", delivered, want)
	}
	// Each shard recorded exactly its ring partition's share, and the
	// shares cover the whole fleet.
	total := int64(0)
	for i, ls := range shards {
		n := ls.Controller().Stats().Counters["results_recorded"]
		if n == 0 {
			t.Fatalf("shard %d recorded nothing — ring did not spread the fleet", i)
		}
		total += n
	}
	if total != int64(len(ps)*perProbe) {
		t.Fatalf("shards recorded %d results total, want %d", total, len(ps)*perProbe)
	}
}

// TestFederatedSyncUnknownProbe: the coordinator must surface the
// owning shard's unknown-probe rejection as a 404, same as a single
// controller.
func TestFederatedSyncUnknownProbe(t *testing.T) {
	cl, _, _ := newHTTPHarness(t, 2)
	_, err := cl.Sync(core.SyncRequest{ProbeID: "ghost"}, 0)
	if err == nil {
		t.Fatal("sync for unregistered probe succeeded")
	}
	var apiErr *core.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("got %v, want 404 APIError", err)
	}
}

// TestFederatedSyncDeadShardRetainsSpool is the failure-mode half of
// the batched contract: when the owning shard dies mid-fleet, the sync
// round fails with 503 + Retry-After (no breaker food), the probe's
// spool still holds the whole undelivered batch, and reviving the
// shard lets the identical retry deliver it.
func TestFederatedSyncDeadShardRetainsSpool(t *testing.T) {
	cl, c, shards := newHTTPHarness(t, 2)
	p := core.ProbeInfo{ID: "probe-00", ASN: 64500, Country: "KE"}
	if err := cl.Register(p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := submit(c, "req-dead", "doomed round", testAssignments([]core.ProbeInfo{p}, 3)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Lease the tasks and execute them into a durable spool, as
	// DrainWithSync would.
	resp, err := cl.Sync(core.SyncRequest{ProbeID: p.ID, Max: 3}, 0)
	if err != nil {
		t.Fatalf("lease round: %v", err)
	}
	if len(resp.Tasks) != 3 {
		t.Fatalf("leased %d tasks, want 3", len(resp.Tasks))
	}
	sp, err := spool.Open(t.TempDir(), spool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for _, task := range resp.Tasks {
		if err := sp.Append(probes.Result{
			TaskID: task.ID, Experiment: task.Experiment,
			ProbeID: p.ID, Kind: task.Kind, OK: true, RTTms: 9,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill every shard: the owning shard is certainly down.
	killed := make([]*core.Controller, len(shards))
	for i, ls := range shards {
		killed[i] = ls.Kill()
	}
	rs, upTo := sp.DrainBatch(64)
	_, err = cl.Sync(core.SyncRequest{ProbeID: p.ID, Results: rs, Max: 3}, 0)
	if err == nil {
		t.Fatal("delivery round succeeded against a dead shard")
	}
	var apiErr *core.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("dead-shard error %v is not an APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != core.ErrCodeShardUnavailable {
		t.Fatalf("got %d %s, want 503 %s", apiErr.Status, apiErr.Code, core.ErrCodeShardUnavailable)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("503 carried RetryAfter %d, want > 0", apiErr.RetryAfter)
	}
	// The contract that makes the failure safe: acks only follow
	// acceptance, so the batch is still spooled.
	if sp.Len() != 3 {
		t.Fatalf("spool holds %d results after failed round, want 3", sp.Len())
	}

	// Revive and retry the identical frame: delivered exactly once.
	for i, ls := range shards {
		ls.Revive(killed[i])
	}
	resp2, err := cl.Sync(core.SyncRequest{ProbeID: p.ID, Results: rs, Max: -1}, 0)
	if err != nil {
		t.Fatalf("retry after revive: %v", err)
	}
	if resp2.Accepted != 3 {
		t.Fatalf("retry accepted %d, want 3", resp2.Accepted)
	}
	if err := sp.AckBatch(upTo); err != nil {
		t.Fatal(err)
	}
	if sp.Len() != 0 {
		t.Fatalf("spool holds %d results after ack, want 0", sp.Len())
	}
}
