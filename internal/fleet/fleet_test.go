package fleet

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// boot starts a system under a test directory and builds a fleet on it.
func boot(t *testing.T, shards int, cfg Config) (*System, *Fleet) {
	t.Helper()
	sys, err := Boot(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	f, err := New(sys.Backend, sys.Handler, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, f
}

// drain runs the fleet to completion and checks it got there.
func drain(t *testing.T, f *Fleet, want int64) {
	t.Helper()
	rep := f.Run(time.Minute)
	if !rep.Drained || rep.Executed != want {
		t.Fatalf("run: drained=%v executed=%d, want drained with %d", rep.Drained, rep.Executed, want)
	}
}

// TestWorkerCountIndependence: how the fleet is split among workers
// changes who sends which round, never what gets recorded.
func TestWorkerCountIndependence(t *testing.T) {
	var keys [2][]store.DedupKey
	for i, workers := range []int{1, 8} {
		sys, f := boot(t, 0, Config{Probes: 40, TasksPerProbe: 3, Workers: workers, Seed: 7})
		drain(t, f, 120)
		if err := f.Audit(sys.Ctrls); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := sys.Ctrls[0].Stats().Counters["results_recorded"]; got != 120 {
			t.Fatalf("%d workers: results_recorded = %d, want 120", workers, got)
		}
		items, _, _, err := sys.Backend.ScanItems(store.Filter{}, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			keys[i] = append(keys[i], it.Key)
		}
		if len(keys[i]) != 120 {
			t.Fatalf("%d workers: store holds %d keys, want 120", workers, len(keys[i]))
		}
	}
	set := func(ks []store.DedupKey) map[store.DedupKey]bool {
		m := map[store.DedupKey]bool{}
		for _, k := range ks {
			m[k] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(keys[0]), set(keys[1])) {
		t.Fatalf("1 and 8 workers stored different key sets:\n%v\n%v", keys[0], keys[1])
	}
}

// TestFederatedRunPassesAudit drives the fleet through a coordinator
// over two shards; the audit reads both shards' books.
func TestFederatedRunPassesAudit(t *testing.T) {
	sys, f := boot(t, 2, Config{Probes: 40, TasksPerProbe: 3, Workers: 4, Seed: 7})
	drain(t, f, 120)
	if err := f.Audit(sys.Ctrls); err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.Ctrls {
		if c.Stats().Counters["results_recorded"] == 0 {
			t.Fatalf("shard %d recorded nothing: the run never spread over both shards", i)
		}
	}
}

// TestCappedRunPassesAudit stops a run long before its workload could
// drain: it is reported undrained, and exactly-once still holds over what
// was delivered.
func TestCappedRunPassesAudit(t *testing.T) {
	sys, f := boot(t, 0, Config{Probes: 500, TasksPerProbe: 1, Workers: 1, Seed: 7})
	rep := f.Run(time.Millisecond)
	if rep.Drained || rep.Executed >= 500 {
		t.Fatalf("capped run: drained=%v executed=%d of 500", rep.Drained, rep.Executed)
	}
	if err := f.Audit(sys.Ctrls); err != nil {
		t.Fatalf("capped run (executed %d): %v", rep.Executed, err)
	}
}

// TestAuditFailsOnSpooledResult: a result still waiting in a probe's
// spool was never delivered, whatever the controllers' counters say.
func TestAuditFailsOnSpooledResult(t *testing.T) {
	sys, f := boot(t, 0, Config{Probes: 8, TasksPerProbe: 2, Workers: 2, Seed: 7})
	drain(t, f, 16)
	if err := f.Audit(sys.Ctrls); err != nil {
		t.Fatal(err)
	}
	f.all[3].spool.Append(probes.Result{TaskID: "held", Experiment: "exp-0001", ProbeID: f.all[3].id, OK: true})
	if err := f.Audit(sys.Ctrls); err == nil || !strings.Contains(err.Error(), "spools 1 results") {
		t.Fatalf("audit with a spooled result: %v", err)
	}
}

// TestAuditFailsOnReassignedQueue: a probe declared dead mid-run has its
// queue moved to a peer. Every task still completes exactly once, so only
// the tasks_reassigned check can tell.
func TestAuditFailsOnReassignedQueue(t *testing.T) {
	sys, f := boot(t, 0, Config{Probes: 16, TasksPerProbe: 2, Workers: 2, Seed: 7})
	silent := f.all[0].id
	for range sys.Ctrls[0].DeadAfter + 1 {
		for _, p := range f.all[1:] {
			if _, err := sys.Backend.Sync(context.Background(), core.SyncRequest{ProbeID: p.id, Max: -1}, 0); err != nil {
				t.Fatal(err)
			}
		}
		sys.Backend.Tick(1)
	}
	if got := sys.Ctrls[0].Stats().Counters["tasks_reassigned"]; got == 0 {
		t.Fatalf("%s never went dead with its queue moved", silent)
	}
	drain(t, f, 32)
	err := f.Audit(sys.Ctrls)
	if err == nil || !strings.Contains(err.Error(), "tasks_reassigned") {
		t.Fatalf("audit after a reassignment: %v", err)
	}
}
