package core

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/faultinject"
	"github.com/afrinet/observatory/internal/probes"
)

// TestCrashRestartRecoveryEndToEnd kills the controller at a random
// point mid-experiment — no graceful shutdown, no final snapshot, plus
// a torn partial record appended to the journal as a crash mid-write
// would leave — and restarts it from the data dir. The probe fleet,
// behind fault-injecting transports, retries through the 503 outage
// window via the client's backoff; the drill must still converge to
// exactly-once completion.
func TestCrashRestartRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := DurabilityConfig{
		Trusted:       []string{"obs"},
		LeaseTTL:      2,
		SuspectAfter:  3,
		DeadAfter:     6,
		SnapshotEvery: 48,
	}
	ctrl, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := NewRecoveryGate()
	gate.Ready(ctrl.Handler())
	srv := httptest.NewServer(gate)
	defer srv.Close()

	admin := NewClientSeeded(srv.URL, 99)
	admin.MaxAttempts = 8
	admin.Sleep = func(time.Duration) {}

	type rig struct {
		agent *probes.Agent
		cl    *Client
		ft    *faultinject.Transport
	}
	var rigs []*rig
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("live-%02d", i)
		ft := faultinject.New(int64(200 + i))
		ft.DropRequestProb = 0.08
		ft.DropResponseProb = 0.12
		ft.DupProb = 0.20
		ft.ErrProb = 0.08
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

	target := testNet.RouterAddr(15169, 0).String()
	var asg []probes.Assignment
	for i := 0; i < 24; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: fmt.Sprintf("live-%02d", i%3),
			Task:    probes.Task{Kind: probes.TaskPing, Target: target},
		})
	}
	exp, err := admin.Submit("obs", "crash drill", asg)
	if err != nil {
		t.Fatal(err)
	}

	// step is one probe poll round, throttled to small leases so the
	// drill takes many rounds and the kill lands mid-experiment.
	step := func(r *rig) {
		tasks, err := leaseTasks(r.cl, r.agent.ID(), 2)
		if err != nil || len(tasks) == 0 {
			_ = heartbeat(r.cl, r.agent.ID())
			return
		}
		results := make([]probes.Result, 0, len(tasks))
		for _, task := range tasks {
			res, err := r.agent.Execute(task)
			if err != nil && res.Error == "" {
				res.Error = err.Error()
			}
			results = append(results, res)
		}
		_ = uploadResults(r.cl, r.agent.ID(), results)
	}

	// The kill lands at a random early round, guaranteed mid-experiment:
	// some results are in, some tasks queued, and a couple freshly
	// leased with their results stranded on the crashed probe's side.
	rng := rand.New(rand.NewSource(7))
	killRound := 2 + rng.Intn(3)
	restartRound := killRound + 2
	restarted := false

	for rounds := 0; rounds < 120 && !(restarted && ctrl.Done(exp.ID)); rounds++ {
		if rounds == killRound {
			if ctrl.Done(exp.ID) {
				t.Fatal("drill converged before the kill round; raise the task count")
			}
			// In-flight work at the instant of the crash: a lease whose
			// results will never be submitted. Recovery must restore the
			// lease and expire it back into a queue.
			_, _ = leaseTasks(rigs[0].cl, "live-00", 2)
			// kill -9: the process vanishes. No snapshot, no Close — and
			// a torn partial append (never acknowledged to anyone) left
			// on the journal tail.
			gate.NotReady()
			tearJournal(t, dir, 0x13, 0x37, 0xde)

			// The 503-during-recovery contract, observed from outside.
			resp, err := http.Get(srv.URL + "/api/v1/health")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("outage window: status=%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if _, err := admin.Stats(); err == nil || !strings.Contains(err.Error(), "503") {
				t.Fatalf("admin call during outage: err=%v, want exhausted 503 retries", err)
			}
		}
		if rounds == restartRound {
			ctrl2, err := Recover(dir, cfg)
			if err != nil {
				t.Fatalf("restart recovery: %v", err)
			}
			d := ctrl2.DurabilityCounters()
			if d["recovery_truncated_tail"] != 1 {
				t.Fatalf("torn tail not detected on restart: %v", d)
			}
			if d["recovery_replayed"] == 0 && ctrl2.Now() == 0 {
				t.Fatalf("restart recovered nothing: %v", d)
			}
			ctrl = ctrl2
			gate.Ready(ctrl.Handler())
			restarted = true
		}

		inOutage := rounds >= killRound && rounds < restartRound
		for _, r := range rigs {
			// During the outage these fail after exhausting retries;
			// that is the probes' problem to survive, not the test's.
			step(r)
		}
		if !inOutage {
			ctrl.Tick(1) // a dead controller's clock does not tick
		}
	}

	if !restarted {
		t.Fatal("drill converged before the kill round; raise the task count")
	}
	if !ctrl.Done(exp.ID) {
		t.Fatalf("pipeline did not converge after crash-restart; stats=%+v durability=%+v",
			ctrl.Stats().Counters, ctrl.DurabilityCounters())
	}

	// Exactly-once completion across the crash: every task has exactly
	// one recorded result, none lost, none duplicated.
	rs := resultsOf(t, ctrl, exp.ID)
	if len(rs) != len(asg) {
		t.Fatalf("results = %d, want %d", len(rs), len(asg))
	}
	perTask := map[string]int{}
	for _, r := range rs {
		perTask[r.TaskID]++
	}
	if len(perTask) != len(asg) {
		t.Fatalf("distinct tasks = %d, want %d", len(perTask), len(asg))
	}
	for id, n := range perTask {
		if n != 1 {
			t.Fatalf("task %s recorded %d times", id, n)
		}
	}

	// Recovery is visible through the public stats endpoint.
	stats, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["results_recorded"] != int64(len(asg)) {
		t.Fatalf("results_recorded = %d, want %d", stats.Counters["results_recorded"], len(asg))
	}
	if stats.Durability["recovery_truncated_tail"] != 1 {
		t.Fatalf("durability counters not exposed over HTTP: %v", stats.Durability)
	}
	if stats.Durability["journal_records_appended"] == 0 {
		t.Fatalf("post-restart appends missing: %v", stats.Durability)
	}

	// A third start — this time after a graceful Close — replays nothing:
	// the final snapshot covered everything.
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	ctrl3, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl3.Close()
	if got := ctrl3.DurabilityCounters()["recovery_replayed"]; got != 0 {
		t.Fatalf("replayed %d records after graceful shutdown, want 0", got)
	}
	if !ctrl3.Done(exp.ID) {
		t.Fatal("experiment state lost across graceful restart")
	}
}
