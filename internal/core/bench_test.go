package core

// Microbenchmarks for the probe hot path, run against a fully durable
// controller (journal + fsync per mutation) so the numbers include the
// cost the batched sync endpoint exists to amortize. check.sh's bench
// smoke keeps them running.

import (
	"fmt"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
)

func benchController(b *testing.B) *Controller {
	b.Helper()
	c, err := Recover(b.TempDir(), DurabilityConfig{
		Trusted:  []string{"bench"},
		LeaseTTL: 1 << 30, // never expire mid-benchmark
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if err := c.RegisterProbe(ProbeInfo{ID: "bench-probe", ASN: 36924, Country: "RW"}); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchEnqueue queues n tasks on the probe through a trusted
// (auto-approved) submission and returns them.
func benchEnqueue(b *testing.B, c *Controller, n int) []probes.Task {
	b.Helper()
	as := make([]probes.Assignment, n)
	for i := range as {
		as[i] = probes.Assignment{
			ProbeID: "bench-probe",
			Task:    probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"},
		}
	}
	exp, err := c.SubmitExperiment("bench", "bench workload", as)
	if err != nil {
		b.Fatal(err)
	}
	ts := make([]probes.Task, len(exp.Assignments))
	for i, a := range exp.Assignments {
		ts[i] = a.Task
	}
	return ts
}

func benchResults(ts []probes.Task) []probes.Result {
	rs := make([]probes.Result, len(ts))
	for i, t := range ts {
		rs[i] = probes.Result{TaskID: t.ID, Experiment: t.Experiment, Kind: t.Kind, OK: true, RTTms: 42}
	}
	return rs
}

// BenchmarkLease is one journaled single-task lease grant per op — the
// unbatched path's per-poll cost.
func BenchmarkLease(b *testing.B) {
	c := benchController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			benchEnqueue(b, c, 1024)
			b.StartTimer()
		}
		if got := c.LeaseTasks("bench-probe", 1); len(got) != 1 {
			b.Fatalf("leased %d tasks, want 1", len(got))
		}
	}
}

// BenchmarkSubmitResultsBatch is one journaled 64-result upload per op
// — the unbatched path's delivery cost, already amortized over a batch
// body but still a round-trip separate from lease and heartbeat.
func BenchmarkSubmitResultsBatch(b *testing.B) {
	const batch = 64
	c := benchController(b)
	var tasks []probes.Task
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next+batch > len(tasks) {
			b.StopTimer()
			tasks = append(tasks[next:], benchEnqueue(b, c, batch*128)...)
			next = 0
			b.StartTimer()
		}
		rs := benchResults(tasks[next : next+batch])
		next += batch
		accepted, err := c.SubmitResults("bench-probe", rs)
		if err != nil {
			b.Fatal(err)
		}
		if accepted != batch {
			b.Fatalf("accepted %d, want %d", accepted, batch)
		}
	}
}

// BenchmarkSync is one full batched round per op: the previous round's
// 16 results plus a 16-task lease ask, one journal append and one fsync
// for the lot.
func BenchmarkSync(b *testing.B) {
	const round = 16
	c := benchController(b)
	benchEnqueue(b, c, 4096)
	resp, err := c.SyncProbe("bench-probe", nil, round)
	if err != nil {
		b.Fatal(err)
	}
	outbox := benchResults(resp.Tasks)
	queued := 4096 - len(resp.Tasks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if queued < round {
			b.StopTimer()
			benchEnqueue(b, c, 4096)
			queued += 4096
			b.StartTimer()
		}
		resp, err := c.SyncProbe("bench-probe", outbox, round)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Accepted != len(outbox) {
			b.Fatal(fmt.Errorf("accepted %d of %d", resp.Accepted, len(outbox)))
		}
		queued -= len(resp.Tasks)
		outbox = benchResults(resp.Tasks)
	}
}
