package core

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/faultinject"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/spool"
)

// TestSpoolBacklogSurvivesProbeRestart is the durable-outbox contract
// end to end: a probe executes its whole queue behind a partition (every
// upload fails), is killed, restarts as a fresh process sharing only the
// spool directory, and delivers the backlog — with the controller's
// lease TTL set so high that lease expiry could never have recovered the
// work, and with zero server-side duplicates.
func TestSpoolBacklogSurvivesProbeRestart(t *testing.T) {
	ctrl := NewController("obs")
	ctrl.LeaseTTL = 1_000_000 // lease expiry must play no part
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	admin := NewClientSeeded(srv.URL, 99)
	if err := admin.Register(ProbeInfo{ID: "kgl-01", ASN: 36924, Country: "RW", HasWired: true}); err != nil {
		t.Fatal(err)
	}

	target := testNet.RouterAddr(15169, 0).String()
	var asg []probes.Assignment
	for i := 0; i < 12; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: "kgl-01",
			Task:    probes.Task{Kind: probes.TaskPing, Target: target},
		})
	}
	exp, err := admin.Submit("obs", "spool drill", asg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()

	// ---- First life: lease, execute into the spool, die partitioned.
	ft := faultinject.New(7)
	cl := NewClientSeeded(srv.URL, 1)
	cl.HTTP = &http.Client{Timeout: 5 * time.Second, Transport: ft}
	cl.MaxAttempts = 2
	cl.Sleep = func(time.Duration) {}
	agent := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true}, testNet, testDNS, testWeb)

	sp, err := spool.Open(dir, spool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := leaseTasks(cl, "kgl-01", 0)
	if err != nil || len(tasks) != len(asg) {
		t.Fatalf("lease: %d tasks, err=%v", len(tasks), err)
	}
	ft.SetPartitioned(true) // uplink dies after the lease landed
	n, err := agent.RunTasks(tasks, sp)
	if err != nil || n != len(tasks) {
		t.Fatalf("RunTasks = %d, %v", n, err)
	}
	if _, err := FlushSpool(cl, "kgl-01", sp); err == nil {
		t.Fatal("flush through a partition succeeded; the drill tested nothing")
	}
	if sp.Len() != len(tasks) {
		t.Fatalf("spool holds %d results behind the partition, want %d", sp.Len(), len(tasks))
	}
	if err := sp.Close(); err != nil { // the power cut
		t.Fatal(err)
	}

	if got := resultsOf(t, ctrl, exp.ID); len(got) != 0 {
		t.Fatalf("controller already has %d results; partition leaked", len(got))
	}

	// ---- Second life: fresh client and agent, same spool dir, link up.
	sp2, err := spool.Open(dir, spool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if sp2.Len() != len(tasks) {
		t.Fatalf("reopened spool holds %d results, want %d", sp2.Len(), len(tasks))
	}
	if sp2.Counters()["spool_replayed"] == 0 {
		t.Fatal("reopen replayed nothing; the backlog came from memory, not disk")
	}
	cl2 := NewClientSeeded(srv.URL, 2)
	cl2.Sleep = func(time.Duration) {}
	agent2 := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true}, testNet, testDNS, testWeb)

	executed, err := DrainWithSync(cl2, agent2, sp2, 0)
	if err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	if executed != 0 {
		t.Fatalf("restart re-executed %d tasks; delivery should need no re-work", executed)
	}
	if sp2.Len() != 0 {
		t.Fatalf("spool still holds %d results after drain", sp2.Len())
	}

	// Exactly-once on the wire: every task completed, nothing deduped,
	// no lease ever expired — the spool alone carried the work across
	// the restart.
	if !ctrl.Done(exp.ID) {
		t.Fatalf("experiment not complete; stats=%+v", ctrl.Stats().Counters)
	}
	rs := resultsOf(t, ctrl, exp.ID)
	if len(rs) != len(asg) {
		t.Fatalf("results = %d, want %d", len(rs), len(asg))
	}
	stats := ctrl.Stats()
	if got := stats.Counters["results_deduped"]; got != 0 {
		t.Fatalf("results_deduped = %d, want 0 (no duplicate deliveries)", got)
	}
	if got := stats.Counters["leases_expired"]; got != 0 {
		t.Fatalf("leases_expired = %d, want 0 (recovery must not lean on lease expiry)", got)
	}
	if got := stats.Counters["results_recorded"]; got != int64(len(asg)) {
		t.Fatalf("results_recorded = %d, want %d", got, len(asg))
	}
}

// TestSpoolRedeliveryAfterLostAckIsDeduped covers the other crash
// window: the upload lands but the probe dies before the ack is
// written. The restarted probe re-sends the batch; the controller
// absorbs it by dedup and the data is never double-counted.
func TestSpoolRedeliveryAfterLostAckIsDeduped(t *testing.T) {
	ctrl := NewController("obs")
	ctrl.LeaseTTL = 1_000_000
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	admin := NewClientSeeded(srv.URL, 99)
	if err := admin.Register(ProbeInfo{ID: "kgl-01", ASN: 36924, Country: "RW", HasWired: true}); err != nil {
		t.Fatal(err)
	}
	target := testNet.RouterAddr(15169, 0).String()
	var asg []probes.Assignment
	for i := 0; i < 4; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: "kgl-01",
			Task:    probes.Task{Kind: probes.TaskPing, Target: target},
		})
	}
	exp, err := admin.Submit("obs", "lost-ack drill", asg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cl := NewClientSeeded(srv.URL, 1)
	cl.Sleep = func(time.Duration) {}
	agent := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true}, testNet, testDNS, testWeb)

	sp, err := spool.Open(dir, spool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := leaseTasks(cl, "kgl-01", 0)
	if err != nil || len(tasks) != len(asg) {
		t.Fatalf("lease: %d tasks, err=%v", len(tasks), err)
	}
	if _, err := agent.RunTasks(tasks, sp); err != nil {
		t.Fatal(err)
	}
	// The upload succeeds but the probe dies before Ack hits the spool.
	rs, _ := sp.DrainBatch(0)
	if err := uploadResults(cl, "kgl-01", rs); err != nil {
		t.Fatal(err)
	}
	sp.Close()

	sp2, err := spool.Open(dir, spool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if sp2.Len() != len(tasks) {
		t.Fatalf("reopened spool holds %d, want %d (ack was never written)", sp2.Len(), len(tasks))
	}
	if _, err := FlushSpool(cl, "kgl-01", sp2); err != nil {
		t.Fatal(err)
	}
	if sp2.Len() != 0 {
		t.Fatalf("spool still holds %d after redelivery", sp2.Len())
	}

	if !ctrl.Done(exp.ID) {
		t.Fatal("experiment not complete")
	}
	if got := resultsOf(t, ctrl, exp.ID); len(got) != len(asg) {
		t.Fatalf("results = %d, want %d (redelivery double-counted?)", len(got), len(asg))
	}
	if got := ctrl.Stats().Counters["results_deduped"]; got != int64(len(asg)) {
		t.Fatalf("results_deduped = %d, want %d (the redelivered batch)", got, len(asg))
	}
}

// TestProbeResilienceCountersInMetricsExposition wires two clients and a
// spool into one obs.Registry as cmd/obsprobe does, through Obs, and
// walks the Prometheus exposition for the probe-side resilience
// counters: spool depth and evictions, breaker trips, Retry-After honors.
func TestProbeResilienceCountersInMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	// A breaker trip: three consecutive transport failures.
	connRefused := fmt.Errorf("dial tcp: connection refused")
	cl, _, _ := scriptedClient([]scriptStep{{err: connRefused}, {err: connRefused}, {err: connRefused}})
	cl.Obs = reg
	cl.MaxAttempts = 1
	cl.BreakerThreshold = 3
	for i := 0; i < 3; i++ {
		_ = heartbeat(cl, "p1")
	}
	// A Retry-After honored on retry.
	cl2, _, _ := scriptedClient([]scriptStep{{status: 429, retryAfter: "1"}})
	cl2.Obs = reg
	cl2.MaxAttempts = 2
	_ = heartbeat(cl2, "p1")

	// A spool with evictions and a pending backlog.
	sp, err := spool.Open(t.TempDir(), spool.Options{MaxPending: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < 4; i++ {
		if err := sp.Append(probes.Result{TaskID: "t", Experiment: "e", ProbeID: "p1", OK: true}); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		`obs_probe_gauge{name="spool_frames_pending"} 2`,
		`obs_probe_resilience_total{name="spool_evicted"} 2`,
		`obs_probe_resilience_total{name="breaker_open_total"} 1`,
		`obs_probe_resilience_total{name="retry_after_honored"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("missing %s in exposition:\n%s", series, text)
		}
	}
}
