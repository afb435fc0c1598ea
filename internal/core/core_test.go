package core

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/content"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/ixp"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/topology"
)

var (
	testTopo = topology.Generate(topology.DefaultParams())
	testNet  = netsim.New(testTopo, bgp.New(testTopo), 42)
	testDNS  = dnssim.New(testNet, 42)
	testWeb  = content.New(testNet, 42)
)

func TestControllerRegisterAndList(t *testing.T) {
	c := NewController()
	if err := c.RegisterProbe(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterProbe(ProbeInfo{}); err == nil {
		t.Fatal("empty probe id accepted")
	}
	ps := c.Probes()
	if len(ps) != 1 || ps[0].ID != "p1" {
		t.Fatalf("probes = %+v", ps)
	}
}

func TestVettingWorkflow(t *testing.T) {
	c := NewController("trusted-owner")
	asg := []probes.Assignment{{ProbeID: "p1", Task: probes.Task{Kind: probes.TaskPing, Target: "1.2.3.4"}}}

	// Trusted: auto-approved and scheduled.
	exp, err := c.SubmitExperiment("trusted-owner", "x", asg)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Status != StatusApproved {
		t.Fatalf("trusted status = %s", exp.Status)
	}
	if got := len(c.queues["p1"]); got != 1 {
		t.Fatalf("queued tasks = %d", got)
	}

	// Untrusted: pending, nothing queued until approval.
	exp2, err := c.SubmitExperiment("rando", "y", asg)
	if err != nil {
		t.Fatal(err)
	}
	if exp2.Status != StatusPending {
		t.Fatalf("untrusted status = %s", exp2.Status)
	}
	if got := len(c.queues["p1"]); got != 1 {
		t.Fatal("pending experiment leaked tasks")
	}
	if err := c.Backend().Approve(context.Background(), exp2.ID); err != nil {
		t.Fatal(err)
	}
	if got := len(c.queues["p1"]); got != 2 {
		t.Fatal("approval did not schedule")
	}
	// Double-approve is idempotent.
	if err := c.Backend().Approve(context.Background(), exp2.ID); err != nil {
		t.Fatal(err)
	}

	// Rejection.
	exp3, _ := c.SubmitExperiment("rando", "z", asg)
	if err := c.Backend().Reject(context.Background(), exp3.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Backend().Approve(context.Background(), exp3.ID); err == nil {
		t.Fatal("approved a rejected experiment")
	}
	if err := c.Backend().Reject(context.Background(), exp2.ID); err == nil {
		t.Fatal("rejected an approved experiment")
	}
}

func TestSubmitValidation(t *testing.T) {
	c := NewController()
	if _, err := c.SubmitExperiment("o", "d", nil); err == nil {
		t.Fatal("empty experiment accepted")
	}
	if err := c.Backend().Approve(context.Background(), "exp-nope"); err == nil {
		t.Fatal("approved unknown experiment")
	}
}

func TestLeaseAndResults(t *testing.T) {
	c := NewController("o")
	if err := c.RegisterProbe(ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	var asg []probes.Assignment
	for i := 0; i < 5; i++ {
		asg = append(asg, probes.Assignment{ProbeID: "p1", Task: probes.Task{Kind: probes.TaskPing, Target: "1.2.3.4"}})
	}
	exp, _ := c.SubmitExperiment("o", "d", asg)

	lease := c.leaseTasks("p1", 2)
	if len(lease) != 2 {
		t.Fatalf("leased %d", len(lease))
	}
	if lease[0].Experiment != exp.ID || lease[0].ID == "" {
		t.Fatalf("task ids not stamped: %+v", lease[0])
	}
	rest := c.leaseTasks("p1", 100)
	if len(rest) != 3 {
		t.Fatalf("second lease = %d", len(rest))
	}
	if c.Done(exp.ID) {
		t.Fatal("done without results")
	}
	var rs []probes.Result
	for _, task := range append(lease, rest...) {
		rs = append(rs, probes.Result{TaskID: task.ID, Experiment: exp.ID, OK: true})
	}
	if n, err := c.submitResults("p1", rs); err != nil || n != 5 {
		t.Fatalf("submit: n=%d err=%v", n, err)
	}
	if !c.Done(exp.ID) {
		t.Fatal("not done after all results")
	}
	if got := len(resultsOf(t, c, exp.ID)); got != 5 {
		t.Fatalf("results = %d", got)
	}
}

// TestHTTPEndToEnd drives the full platform through the HTTP API: probes
// register over the wire, an experiment runs, results come back.
func TestHTTPEndToEnd(t *testing.T) {
	ctrl := NewController("upanzi")
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	agent := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true},
		testNet, testDNS, testWeb)
	if err := cl.Register(ProbeInfo{ID: "kgl-01", ASN: 36924, Country: "RW", HasWired: true}); err != nil {
		t.Fatal(err)
	}
	ps, err := cl.Probes()
	if err != nil || len(ps) != 1 {
		t.Fatalf("probes over HTTP: %v %d", err, len(ps))
	}

	var asg []probes.Assignment
	target := testNet.RouterAddr(15169, 0).String()
	asg = append(asg,
		probes.Assignment{ProbeID: "kgl-01", Task: probes.Task{Kind: probes.TaskTraceroute, Target: target}},
		probes.Assignment{ProbeID: "kgl-01", Task: probes.Task{Kind: probes.TaskDNS, Domain: "site0.RW", OriginCountry: "RW"}},
	)
	exp, err := cl.Submit("upanzi", "integration", asg)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Status != StatusApproved {
		t.Fatalf("status = %s", exp.Status)
	}

	n, err := RunAgentOnce(cl, agent)
	if err != nil || n != 2 {
		t.Fatalf("agent ran %d tasks, err=%v", n, err)
	}

	rs, err := cl.Results(exp.ID)
	if err != nil || len(rs) != 2 {
		t.Fatalf("results: %v %d", err, len(rs))
	}
	for _, r := range rs {
		if !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
		if r.ProbeID != "kgl-01" {
			t.Fatalf("probe id not stamped: %+v", r)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	ctrl := NewController()
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	var apiErr *APIError
	if _, err := cl.Results("exp-0042"); !errors.As(err, &apiErr) || apiErr.Code != ErrCodeNotFound {
		// as on a coordinator: an unknown experiment is not an empty one
		t.Fatalf("results for unknown experiment: err %v, want 404 not_found", err)
	}
	if err := cl.Approve("exp-0042"); err == nil {
		t.Fatal("approving unknown experiment should fail over HTTP")
	}
	if _, err := cl.Submit("o", "d", nil); err == nil {
		t.Fatal("empty submission should fail over HTTP")
	}
}

func TestTargetedPlacementCoversAllIXPs(t *testing.T) {
	placement := TargetedPlacement(testTopo)
	dir := registry.AfricanIXPs(testTopo)
	if got := ixp.CoverageOf(dir, placement); got != len(dir) {
		t.Fatalf("targeted placement covers %d/%d fabrics", got, len(dir))
	}
	// Mobile focus: it includes mobile carriers.
	mobile := 0
	for _, a := range placement {
		if testTopo.ASes[a].Type == topology.ASMobileCarrier {
			mobile++
		}
	}
	if mobile < 20 {
		t.Fatalf("only %d mobile carriers in placement", mobile)
	}
}

func TestAtlasPlacementBias(t *testing.T) {
	atlas := AtlasPlacement(testTopo, 48)
	if len(atlas) == 0 {
		t.Fatal("empty placement")
	}
	perRegion := map[geo.Region]int{}
	for _, a := range atlas {
		as := testTopo.ASes[a]
		if as.Type == topology.ASMobileCarrier {
			t.Fatal("Atlas placement must avoid mobile carriers (the bias)")
		}
		perRegion[as.Region]++
	}
	if perRegion[geo.AfricaSouthern] <= perRegion[geo.AfricaCentral] {
		t.Fatalf("placement should favor mature markets: %+v", perRegion)
	}
	for _, r := range geo.AfricanRegions() {
		if perRegion[r] == 0 {
			t.Fatalf("region %s has no probes at all", r)
		}
	}
}

func TestIXPTraceTargets(t *testing.T) {
	targets := IXPTraceTargets(testTopo, testNet)
	if len(targets) < 70 {
		t.Fatalf("targets for %d fabrics, want nearly all 77", len(targets))
	}
	for id, addr := range targets {
		owner, ok := testNet.OwnerOf(addr)
		if !ok {
			t.Fatalf("target for fabric %d unrouted", id)
		}
		// The target must be a member of that fabric.
		found := false
		for _, m := range testTopo.IXPs[id].Members {
			if m == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("target AS%d is not a member of fabric %d", owner, id)
		}
	}
}

func TestResolverAuditTasks(t *testing.T) {
	tasks := ResolverAuditTasks(testWeb.Catalog(), 3)
	if len(tasks) != 54*3 {
		t.Fatalf("tasks = %d, want 162", len(tasks))
	}
	for _, task := range tasks {
		if task.Kind != probes.TaskDNS || task.Domain == "" || task.OriginCountry == "" {
			t.Fatalf("malformed task %+v", task)
		}
	}
}

func TestContentLocalityTasks(t *testing.T) {
	tasks := ContentLocalityTasks(testWeb.Catalog(), "KE", 5)
	if len(tasks) != 5 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	all := ContentLocalityTasks(testWeb.Catalog(), "KE", 0)
	if len(all) != len(testWeb.Catalog().SitesFor("KE")) {
		t.Fatal("zero limit should mean all sites")
	}
}

func TestCableSpanTargets(t *testing.T) {
	targets := CableSpanTargets(testTopo, testNet)
	if len(targets) < 20 {
		t.Fatalf("only %d cable-span targets", len(targets))
	}
}

func TestTracerouteAssignments(t *testing.T) {
	targets := CableSpanTargets(testTopo, testNet)[:3]
	asg := TracerouteAssignments([]string{"p1", "p2"}, targets, "test")
	if len(asg) != 6 {
		t.Fatalf("assignments = %d", len(asg))
	}
	ids := map[string]bool{}
	for _, a := range asg {
		if ids[a.Task.ID] {
			t.Fatalf("duplicate task id %s", a.Task.ID)
		}
		ids[a.Task.ID] = true
	}
}
