package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

const (
	chainCloud = "stub>cache>cloud>authority"
	chainLocal = "stub>cache>forwarder>authority"
)

// TestDNSLoadDimensionsEndToEnd drives dnsload results through the
// platform (submit → store → /api/v1/query) and reads them back through
// the client on the PR 10 dimensions: resolver_chain and ecs as both
// filters and group-bys.
func TestDNSLoadDimensionsEndToEnd(t *testing.T) {
	ctrl := NewController("o")
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	if err := cl.Register(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	var asg []probes.Assignment
	for i := 0; i < 12; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: "p1",
			Task:    probes.Task{Kind: probes.TaskDNSLoad, Domain: "site0.RW", OriginCountry: "RW", Queries: 64, ECS: i%2 == 0},
		})
	}
	exp, err := ctrl.SubmitExperiment("o", "dnsload drill", asg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.leaseTasks("p1", 12)
	// Fabricated burst outcomes: even tasks ran with ECS through the
	// cloud chain, odd ones without ECS through the forwarder chain.
	var rs []probes.Result
	for i := 0; i < 12; i++ {
		chain := chainLocal
		if i%2 == 0 {
			chain = chainCloud
		}
		rs = append(rs, probes.Result{
			TaskID:        fmt.Sprintf("%s-t%04d", exp.ID, i),
			Experiment:    exp.ID,
			Kind:          probes.TaskDNSLoad,
			OK:            true,
			RTTms:         float64(30 + i),
			ResolverChain: chain,
			ECS:           i%2 == 0,
			QueriesOK:     64,
			CloudAuth:     32,
			Localized:     16 + 16*(i%2), // ECS bursts fully localized
		})
	}
	if _, err := ctrl.submitResults("p1", rs); err != nil {
		t.Fatal(err)
	}

	// group_by=resolver_chain: two buckets, keyed and sorted by shape.
	rep, _, err := cl.QueryAggregate(store.Filter{Experiment: exp.ID}, store.GroupResolverChain)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 12 || len(rep.Groups) != 2 {
		t.Fatalf("resolver_chain aggregate: matched=%d groups=%d", rep.Matched, len(rep.Groups))
	}
	if rep.Groups[0].ResolverChain != chainCloud || rep.Groups[1].ResolverChain != chainLocal {
		t.Fatalf("chain buckets out of order: %+v", rep.Groups)
	}
	for _, g := range rep.Groups {
		if g.Count != 6 || g.OK != 6 {
			t.Fatalf("chain bucket %q count=%d ok=%d, want 6/6", g.ResolverChain, g.Count, g.OK)
		}
	}

	// group_by=ecs: "false" sorts before "true".
	rep, _, err = cl.QueryAggregate(store.Filter{Experiment: exp.ID}, store.GroupECS)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 2 || rep.Groups[0].ECS != "false" || rep.Groups[1].ECS != "true" {
		t.Fatalf("ecs buckets malformed: %+v", rep.Groups)
	}

	// Both dimensions as filters, composed.
	rep, _, err = cl.QueryAggregate(store.Filter{Experiment: exp.ID, ResolverChain: chainCloud}, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 6 {
		t.Fatalf("resolver_chain filter matched %d, want 6", rep.Matched)
	}
	rep, _, err = cl.QueryAggregate(store.Filter{Experiment: exp.ID, ECS: "false"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 6 {
		t.Fatalf("ecs filter matched %d, want 6", rep.Matched)
	}
	rep, _, err = cl.QueryAggregate(store.Filter{Experiment: exp.ID, ResolverChain: chainCloud, ECS: "false"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 0 {
		t.Fatalf("composed filter matched %d, want 0 (cloud bursts all ran with ECS)", rep.Matched)
	}

	// Scan path honors the new filters too.
	items, _, _, err := cl.QueryScan(store.Filter{Experiment: exp.ID, ECS: "true"}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	recs := itemRecords(t, items)
	if len(recs) != 6 {
		t.Fatalf("scan ecs=true returned %d records, want 6", len(recs))
	}
	for _, r := range recs {
		if !r.Result.ECS || r.Result.ResolverChain != chainCloud {
			t.Fatalf("scan leaked a non-matching record: %+v", r.Result)
		}
	}

	// Malformed ecs is a 400 with the uniform envelope, not a silent any.
	resp, err := http.Get(srv.URL + "/api/v1/query?ecs=maybe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ecs=maybe status = %d, want 400", resp.StatusCode)
	}
}
