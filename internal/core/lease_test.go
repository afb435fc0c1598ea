package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

func mustRegister(t *testing.T, c *Controller, id string, asn topology.ASN, country string) {
	t.Helper()
	if err := c.RegisterProbe(ProbeInfo{ID: id, ASN: asn, Country: country}); err != nil {
		t.Fatal(err)
	}
}

func pingAssignments(probeID string, n int) []probes.Assignment {
	var asg []probes.Assignment
	for i := 0; i < n; i++ {
		asg = append(asg, probes.Assignment{ProbeID: probeID, Task: probes.Task{Kind: probes.TaskPing, Target: "1.2.3.4"}})
	}
	return asg
}

func okResult(task probes.Task) probes.Result {
	return probes.Result{TaskID: task.ID, Experiment: task.Experiment, OK: true}
}

// resultsOf reads every stored result of an experiment in one page.
func resultsOf(t *testing.T, c *Controller, expID string) []probes.Result {
	t.Helper()
	rs, _, err := c.ResultsPage(expID, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestLeaseExpiryRequeueRedeliverDedup walks the full lifecycle:
// lease → expire → requeue → redeliver → dedup.
func TestLeaseExpiryRequeueRedeliverDedup(t *testing.T) {
	c := NewController("o")
	c.LeaseTTL = 2
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "lifecycle", pingAssignments("p1", 3))
	if err != nil {
		t.Fatal(err)
	}

	lease := c.leaseTasks("p1", 0)
	if len(lease) != 3 || len(c.queues["p1"]) != 0 || len(c.leases) != 3 {
		t.Fatalf("lease=%d pending=%d outstanding=%d", len(lease), len(c.queues["p1"]), len(c.leases))
	}

	// One result lands before the deadline.
	if n, err := c.submitResults("p1", []probes.Result{okResult(lease[0])}); err != nil || n != 1 {
		t.Fatalf("submit: n=%d err=%v", n, err)
	}
	c.Tick(1) // now=1: nothing expires yet
	if got := len(c.queues["p1"]); got != 0 {
		t.Fatalf("requeued too early: pending=%d", got)
	}
	c.Tick(1) // now=2: the two unfinished leases lapse
	if got := len(c.queues["p1"]); got != 2 {
		t.Fatalf("expired leases not requeued: pending=%d", got)
	}
	if len(c.leases) != 0 {
		t.Fatalf("outstanding=%d after reap", len(c.leases))
	}
	stats := c.Stats()
	if stats.Counters["leases_expired"] != 2 || stats.Counters["tasks_requeued"] != 2 {
		t.Fatalf("counters = %v", stats.Counters)
	}

	// Redelivery completes the experiment.
	release := c.leaseTasks("p1", 0)
	if len(release) != 2 {
		t.Fatalf("redelivered %d tasks", len(release))
	}
	var rs []probes.Result
	for _, task := range release {
		rs = append(rs, okResult(task))
	}
	if n, err := c.submitResults("p1", rs); err != nil || n != 2 {
		t.Fatalf("submit: n=%d err=%v", n, err)
	}
	if !c.Done(exp.ID) {
		t.Fatal("not done after redelivery")
	}

	// A redelivered (duplicate) upload is absorbed, not double-counted.
	if n, err := c.submitResults("p1", rs); err != nil || n != 0 {
		t.Fatalf("duplicate submit: n=%d err=%v", n, err)
	}
	if got := len(resultsOf(t, c, exp.ID)); got != 3 {
		t.Fatalf("results = %d, want 3", got)
	}
	if got := c.Stats().Counters["results_deduped"]; got != 2 {
		t.Fatalf("results_deduped = %d", got)
	}
}

// TestLeaseSkipsCompletedTasks: a requeued copy whose original delivery
// completed late is dropped at the next lease instead of re-executed.
func TestLeaseSkipsCompletedTasks(t *testing.T) {
	c := NewController("o")
	c.LeaseTTL = 1
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "race", pingAssignments("p1", 1))
	if err != nil {
		t.Fatal(err)
	}
	lease := c.leaseTasks("p1", 0)
	c.Tick(1) // lease expires, task requeued
	if len(c.queues["p1"]) != 1 {
		t.Fatal("task not requeued")
	}
	// The original (slow) delivery lands after the requeue.
	if n, err := c.submitResults("p1", []probes.Result{okResult(lease[0])}); err != nil || n != 1 {
		t.Fatalf("late submit: n=%d err=%v", n, err)
	}
	// The stale queued copy is dropped, not re-leased.
	if again := c.leaseTasks("p1", 0); len(again) != 0 {
		t.Fatalf("re-leased a completed task: %v", again)
	}
	if got := c.Stats().Counters["tasks_dropped_completed"]; got != 1 {
		t.Fatalf("tasks_dropped_completed = %d", got)
	}
	if !c.Done(exp.ID) || len(resultsOf(t, c, exp.ID)) != 1 {
		t.Fatalf("done=%v results=%d", c.Done(exp.ID), len(resultsOf(t, c, exp.ID)))
	}
}

func TestSubmitResultsValidation(t *testing.T) {
	c := NewController("o")
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "v", pingAssignments("p1", 1))
	if err != nil {
		t.Fatal(err)
	}
	task := c.leaseTasks("p1", 0)[0]

	if _, err := c.submitResults("ghost", []probes.Result{okResult(task)}); err == nil {
		t.Fatal("unregistered probe accepted")
	}
	if _, err := c.submitResults("p1", []probes.Result{{TaskID: "t1", Experiment: "exp-9999", OK: true}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := c.submitResults("p1", []probes.Result{{TaskID: "not-a-task", Experiment: exp.ID, OK: true}}); err == nil {
		t.Fatal("unknown task id accepted")
	}
	// A batch mixing a valid and an invalid result records nothing.
	bad := []probes.Result{okResult(task), {TaskID: "nope", Experiment: exp.ID}}
	if n, err := c.submitResults("p1", bad); err == nil || n != 0 {
		t.Fatalf("mixed batch: n=%d err=%v", n, err)
	}
	if len(resultsOf(t, c, exp.ID)) != 0 {
		t.Fatal("rejected batch left residue")
	}
	if got := c.Stats().Counters["results_rejected"]; got != 4 {
		t.Fatalf("results_rejected = %d", got)
	}
}

// TestProbeLivenessTransitions drives alive → suspect → dead → revived
// and checks a dead probe's queue lands on a same-ASN peer.
func TestProbeLivenessTransitions(t *testing.T) {
	c := NewController("o")
	c.SuspectAfter = 2
	c.DeadAfter = 4
	mustRegister(t, c, "silent", 36924, "RW")
	mustRegister(t, c, "peer", 36924, "RW")
	if _, err := c.SubmitExperiment("o", "l", pingAssignments("silent", 3)); err != nil {
		t.Fatal(err)
	}

	step := func(ticks int) {
		for i := 0; i < ticks; i++ {
			if _, err := c.SyncProbe("peer", nil, -1); err != nil {
				t.Fatal(err)
			}
			c.Tick(1)
		}
	}

	step(1)
	if h := c.probes["silent"].health; h != ProbeAlive {
		t.Fatalf("health after 1 tick = %s", h)
	}
	step(1)
	if h := c.probes["silent"].health; h != ProbeSuspect {
		t.Fatalf("health after 2 ticks = %s", h)
	}
	if len(c.queues["silent"]) != 3 {
		t.Fatal("suspect probe lost its queue prematurely")
	}
	step(2)
	if h := c.probes["silent"].health; h != ProbeDead {
		t.Fatalf("health after 4 ticks = %s", h)
	}
	// Death hands the whole queue to the same-ASN peer.
	if got := len(c.queues["peer"]); got != 3 {
		t.Fatalf("peer inherited %d tasks", got)
	}
	if len(c.queues["silent"]) != 0 {
		t.Fatal("dead probe kept its queue")
	}
	stats := c.Stats()
	if stats.Counters["tasks_reassigned"] != 3 || stats.Counters["probes_dead"] != 1 {
		t.Fatalf("counters = %v", stats.Counters)
	}

	// Contact revives.
	if _, err := c.SyncProbe("silent", nil, -1); err != nil {
		t.Fatal(err)
	}
	if h := c.probes["silent"].health; h != ProbeAlive {
		t.Fatalf("health after heartbeat = %s", h)
	}
	if got := c.Stats().Counters["probes_revived"]; got != 1 {
		t.Fatalf("probes_revived = %d", got)
	}

	hr := c.Health()
	if hr.Status != "ok" || hr.ProbesAlive != 2 {
		t.Fatalf("health report = %+v", hr)
	}
}

// TestDeadProbeLeaseReassignment: leases held by a probe that dies are
// requeued onto a live peer, not back onto the corpse.
func TestDeadProbeLeaseReassignment(t *testing.T) {
	c := NewController("o")
	c.LeaseTTL = 10 // longer than death, so death is what matters
	c.SuspectAfter = 1
	c.DeadAfter = 2
	mustRegister(t, c, "crash", 36924, "RW")
	mustRegister(t, c, "peer", 36924, "RW")
	if _, err := c.SubmitExperiment("o", "c", pingAssignments("crash", 2)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.leaseTasks("crash", 0)); got != 2 {
		t.Fatalf("leased %d", got)
	}
	// crash goes silent; peer keeps in touch. The lease outlives the
	// probe, so the reaper must reroute at expiry.
	for i := 0; i < 10; i++ {
		if _, err := c.SyncProbe("peer", nil, -1); err != nil {
			t.Fatal(err)
		}
		c.Tick(1)
	}
	if h := c.probes["crash"].health; h != ProbeDead {
		t.Fatalf("crash health = %s", h)
	}
	if got := len(c.queues["peer"]); got != 2 {
		t.Fatalf("peer queue = %d, want the reaped leases", got)
	}
	if len(c.queues["crash"]) != 0 {
		t.Fatal("reaped leases went back to the dead probe")
	}
}

// TestSyncMaxValidation: a max that is not an integer is a 400; 0 and
// omitted both mean the server default.
func TestSyncMaxValidation(t *testing.T) {
	c := NewController()
	mustRegister(t, c, "p1", 36924, "RW")
	h := c.Handler()

	for _, bad := range []string{`"abc"`, `1.5`, `9e9x`} {
		if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", `{"probe_id": "p1", "max": `+bad+`}`, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("max=%s: status %d, want 400", bad, w.Code)
		}
	}
	for _, body := range []string{`{"probe_id": "p1", "max": 0}`, `{"probe_id": "p1"}`} {
		if w := doReq(h, http.MethodPost, "/api/v1/probes/sync", body, nil); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", body, w.Code)
		}
	}
}

// TestExperimentRouteValidation covers the routing fixes: empty id is a
// 404, and /results only answers GET.
func TestExperimentRouteValidation(t *testing.T) {
	c := NewController("o")
	mustRegister(t, c, "p1", 36924, "RW")
	exp, err := c.SubmitExperiment("o", "r", pingAssignments("p1", 1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/experiments/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty id: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/api/v1/experiments/"+exp.ID+"/results", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST results: status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/api/v1/experiments/" + exp.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results: status %d", resp.StatusCode)
	}
}

// dropFirstResultsResponse delivers the first sync that carries results
// (the drain's second /probes/sync POST; its first only leases) to the
// server but loses the response — the canonical at-least-once hazard.
type dropFirstResultsResponse struct {
	inner http.RoundTripper
	syncs int
}

func (d *dropFirstResultsResponse) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.inner.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/probes/sync") {
		return resp, err
	}
	if d.syncs++; d.syncs == 2 {
		resp.Body.Close()
		return nil, fmt.Errorf("injected: response lost")
	}
	return resp, err
}

// TestRunAgentOnceRetriesSubmitResults: the upload's first delivery is
// processed but its response is lost; the client retries and the
// controller records each task's result exactly once.
func TestRunAgentOnceRetriesSubmitResults(t *testing.T) {
	ctrl := NewController("o")
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	cl := NewClientSeeded(srv.URL, 7)
	cl.HTTP.Transport = &dropFirstResultsResponse{inner: http.DefaultTransport}
	cl.Sleep = func(time.Duration) {}

	agent := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true}, testNet, testDNS, testWeb)
	if err := cl.Register(ProbeInfo{ID: "kgl-01", ASN: 36924, Country: "RW", HasWired: true}); err != nil {
		t.Fatal(err)
	}
	target := testNet.RouterAddr(15169, 0).String()
	exp, err := cl.Submit("o", "retry", []probes.Assignment{
		{ProbeID: "kgl-01", Task: probes.Task{Kind: probes.TaskPing, Target: target}},
		{ProbeID: "kgl-01", Task: probes.Task{Kind: probes.TaskPing, Target: target}},
	})
	if err != nil {
		t.Fatal(err)
	}

	n, err := RunAgentOnce(cl, agent)
	if err != nil || n != 2 {
		t.Fatalf("ran %d tasks, err=%v", n, err)
	}
	if !ctrl.Done(exp.ID) {
		t.Fatal("experiment not done")
	}
	rs := resultsOf(t, ctrl, exp.ID)
	if len(rs) != 2 {
		t.Fatalf("results = %d, want exactly 2 (no duplicates)", len(rs))
	}
	counts := map[string]int{}
	for _, r := range rs {
		counts[r.TaskID]++
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("task %s recorded %d times", id, n)
		}
	}
	stats := ctrl.Stats()
	if stats.Counters["results_deduped"] != 2 || stats.Counters["results_recorded"] != 2 {
		t.Fatalf("counters = %v", stats.Counters)
	}
}

// TestEnqueueToAlreadyDeadProbe covers tasks that are approved only
// after their target probe has been declared dead. The dead transition
// already happened, so transition-time reassignment never sees the
// queue; the sweep must keep draining dead probes' queues on every
// tick so late arrivals still move to a peer.
func TestEnqueueToAlreadyDeadProbe(t *testing.T) {
	c := NewController("o")
	c.SuspectAfter = 1
	c.DeadAfter = 2
	mustRegister(t, c, "gone-01", 36924, "RW")
	mustRegister(t, c, "peer-01", 36924, "RW")

	// peer-01 stays in touch; gone-01 never reports again.
	for i := 0; i < 2; i++ {
		c.Tick(1)
		if _, err := c.SyncProbe("peer-01", nil, -1); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.probes["gone-01"].health; got != ProbeDead {
		t.Fatalf("gone-01 health = %v, want %v", got, ProbeDead)
	}

	// The experiment lands while gone-01 is already dead.
	if _, err := c.SubmitExperiment("o", "late", pingAssignments("gone-01", 2)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.queues["gone-01"]); got != 2 {
		t.Fatalf("pending on dead probe = %d, want 2", got)
	}

	// Next sweep moves the queue onto the surviving same-ASN peer.
	c.Tick(1)
	if got := len(c.queues["gone-01"]); got != 0 {
		t.Fatalf("dead probe still holds %d tasks", got)
	}
	if got := len(c.queues["peer-01"]); got != 2 {
		t.Fatalf("peer queue = %d, want 2", got)
	}
	if got := c.Stats().Counters["tasks_reassigned"]; got != 2 {
		t.Fatalf("tasks_reassigned = %d, want 2", got)
	}
}
