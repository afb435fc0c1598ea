package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/faultinject"
	"github.com/afrinet/observatory/internal/probes"
)

// TestFaultInjectedPipelineEndToEnd runs the controller and a probe
// fleet through seeded drops, duplicate deliveries, injected 503s, a
// probe that crashes mid-lease, a probe that registers and is never
// heard from again, and a temporary partition of one live probe — and
// asserts every task completes exactly once, with the recovery paths
// observably exercised through the stats counters.
func TestFaultInjectedPipelineEndToEnd(t *testing.T) {
	ctrl := NewController("obs")
	ctrl.LeaseTTL = 2
	ctrl.SuspectAfter = 3
	ctrl.DeadAfter = 5
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	// The experimenter sits on a clean link; the probes do not.
	admin := NewClientSeeded(srv.URL, 99)

	type rig struct {
		agent *probes.Agent
		cl    *Client
		ft    *faultinject.Transport
	}
	var rigs []*rig
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("live-%02d", i)
		ft := faultinject.New(int64(100 + i))
		ft.DropRequestProb = 0.10
		ft.DropResponseProb = 0.15
		ft.DupProb = 0.25
		ft.ErrProb = 0.10
		ft.DelayProb = 0.10
		ft.Delay = time.Millisecond
		cl := NewClientSeeded(srv.URL, int64(i+1))
		cl.HTTP = &http.Client{Timeout: 5 * time.Second, Transport: ft}
		cl.MaxAttempts = 6
		cl.Sleep = func(time.Duration) {}
		if err := cl.Register(ProbeInfo{ID: id, ASN: 36924, Country: "RW", HasWired: true}); err != nil {
			t.Fatal(err)
		}
		rigs = append(rigs, &rig{
			agent: probes.NewAgent(probes.Config{ID: id, ASN: 36924, HasWired: true}, testNet, testDNS, testWeb),
			cl:    cl,
			ft:    ft,
		})
	}
	// crash-01 will lease tasks and die mid-lease; dead-01 registers and
	// is never heard from again. Both sit in the live probes' ASN so
	// their work can be reassigned.
	crashCl := NewClientSeeded(srv.URL, 50)
	crashCl.Sleep = func(time.Duration) {}
	for _, id := range []string{"crash-01", "dead-01"} {
		if err := admin.Register(ProbeInfo{ID: id, ASN: 36924, Country: "RW", HasWired: true}); err != nil {
			t.Fatal(err)
		}
	}

	target := testNet.RouterAddr(15169, 0).String()
	ids := []string{"live-00", "live-01", "live-02", "crash-01", "dead-01"}
	var asg []probes.Assignment
	for i := 0; i < 30; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: ids[i%len(ids)],
			Task:    probes.Task{Kind: probes.TaskPing, Target: target},
		})
	}
	exp, err := admin.Submit("obs", "fault drill", asg)
	if err != nil {
		t.Fatal(err)
	}

	// crash-01 leases its whole queue, then the process "dies" with the
	// results stranded on disk; it reboots only after the drill.
	crashTasks, err := leaseTasks(crashCl, "crash-01", 0)
	if err != nil || len(crashTasks) != 6 {
		t.Fatalf("crash lease: %d tasks, err=%v", len(crashTasks), err)
	}

	rounds := 0
	for ; rounds < 60 && !ctrl.Done(exp.ID); rounds++ {
		// Partition live-00 for a few rounds mid-run.
		if rounds == 5 {
			rigs[0].ft.SetPartitioned(true)
		}
		if rounds == 9 {
			rigs[0].ft.SetPartitioned(false)
		}
		for _, r := range rigs {
			// Fault-induced errors are the point; abandoned work is
			// recovered by lease expiry.
			_, _ = RunAgentOnce(r.cl, r.agent)
			_ = heartbeat(r.cl, r.agent.ID())
		}
		ctrl.Tick(1)
	}
	if !ctrl.Done(exp.ID) {
		t.Fatalf("pipeline did not converge in %d rounds; stats=%+v", rounds, ctrl.Stats().Counters)
	}

	// crash-01 reboots and uploads its stranded results. Peers finished
	// those tasks long ago (the leases expired and were reassigned), so
	// every one of them must be absorbed by dedup, not double-counted.
	var stale []probes.Result
	for _, task := range crashTasks {
		stale = append(stale, probes.Result{TaskID: task.ID, Experiment: task.Experiment, OK: true})
	}
	if err := uploadResults(crashCl, "crash-01", stale); err != nil {
		t.Fatalf("stale upload rejected: %v", err)
	}

	// Exactly-once completion: every task has exactly one result.
	rs := resultsOf(t, ctrl, exp.ID)
	if len(rs) != len(asg) {
		t.Fatalf("results = %d, want %d", len(rs), len(asg))
	}
	perTask := map[string]int{}
	for _, r := range rs {
		perTask[r.TaskID]++
	}
	if len(perTask) != len(asg) {
		t.Fatalf("distinct tasks with results = %d, want %d", len(perTask), len(asg))
	}
	for id, n := range perTask {
		if n != 1 {
			t.Fatalf("task %s recorded %d times", id, n)
		}
	}

	// The recovery machinery must have actually fired, and it must be
	// visible through the public stats endpoint.
	stats, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{"leases_expired", "tasks_requeued", "tasks_reassigned"} {
		if stats.Counters[counter] == 0 {
			t.Fatalf("counter %s never fired; counters=%v", counter, stats.Counters)
		}
	}
	if got := stats.Counters["results_deduped"]; got < int64(len(crashTasks)) {
		t.Fatalf("results_deduped = %d, want >= %d (the stale upload)", got, len(crashTasks))
	}
	if got := stats.Counters["probes_revived"]; got < 1 {
		t.Fatalf("probes_revived = %d; the reboot went unnoticed", got)
	}
	if stats.Counters["results_recorded"] != int64(len(asg)) {
		t.Fatalf("results_recorded = %d, want %d", stats.Counters["results_recorded"], len(asg))
	}

	// Fleet health: dead-01 is still gone (degraded), crash-01 revived.
	hr, err := admin.Health()
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || hr.ProbesDead != 1 {
		t.Fatalf("health = %+v", hr)
	}
	// The faulty transports really did inject faults.
	injected := int64(0)
	for _, r := range rigs {
		for k, v := range r.ft.Stats() {
			if k != "passed" {
				injected += v
			}
		}
	}
	if injected == 0 {
		t.Fatal("no faults were injected; the drill tested nothing")
	}
}
