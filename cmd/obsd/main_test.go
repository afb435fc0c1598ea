package main

import (
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
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
