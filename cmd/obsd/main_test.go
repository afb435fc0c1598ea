package main

import (
	"context"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/probes"
)

// TestParseRouteRatesRejectsUnknownRoute: a bucket on a name the tier
// does not serve would never be consulted, so -route-rates refuses it
// and names the routes it could have meant.
func TestParseRouteRatesRejectsUnknownRoute(t *testing.T) {
	for _, routes := range [][]core.RouteInfo{core.APIRoutes(), federation.APIRoutes()} {
		rates, err := parseRouteRates("query=2:8", routes)
		if err != nil || rates["query"] != (core.RateLimit{PerTick: 2, Burst: 8}) {
			t.Errorf("query=2:8: got %v, %v; want query at 2 per tick, burst 8", rates, err)
		}
		for _, spec := range []string{"qurey=2:8", "=2:8", "query=2:8, qurey=1:1"} {
			if _, err := parseRouteRates(spec, routes); err == nil || !strings.Contains(err.Error(), "experiment_results") {
				t.Errorf("%s: got error %v, want one listing the tier's routes", spec, err)
			}
		}
	}
	if _, err := parseRouteRates("shards=1:1", core.APIRoutes()); err == nil {
		t.Error("shards=1:1 parsed for a single controller, which serves no shards route")
	}
	if _, err := parseRouteRates("shards=1:1", federation.APIRoutes()); err != nil {
		t.Errorf("shards=1:1 for a coordinator: %v", err)
	}
}

// TestRestartAfterFailoverKeepsTheEpoch: -shards over a -data-dir
// restarts each shard at the epoch the coordinator journaled, in the
// directory its last failover shipped it to, so an experiment a
// failed-over shard acknowledged is still there after the restart.
func TestRestartAfterFailoverKeepsTheEpoch(t *testing.T) {
	ctx, dir := context.Background(), t.TempDir()
	cfg := core.DurabilityConfig{Trusted: []string{"lab"}}
	svc := buildLocalFederation(1, dir, cfg, federation.Config{})
	if err := svc.Register(ctx, core.ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.FailoverShard("shard-0"); err != nil {
		t.Fatal(err)
	}
	as := []probes.Assignment{{ProbeID: "p1", Task: probes.Task{Kind: probes.TaskPing, Target: "203.0.113.9"}}}
	if _, err := svc.Submit(ctx, core.SubmitRequest{Owner: "lab", Assignments: as}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc = buildLocalFederation(1, dir, cfg, federation.Config{})
	defer svc.Close()
	if sts := svc.ShardStatuses(); len(sts) != 1 || sts[0].Epoch != 1 {
		t.Fatalf("shards after the restart: %+v, want shard-0 at epoch 1", sts)
	}
	if exp, err := svc.Experiment("fexp-0001"); err != nil || len(exp.Assignments) != 1 {
		t.Fatalf("fexp-0001 after the restart: %+v, %v; want its one assignment", exp, err)
	}
}
