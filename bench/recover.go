package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
)

// recoverOut is what the failover drill measured.
type recoverOut struct {
	replay    samples // Recover over the journal as the crash left it
	snapshot  samples // Recover from a snapshot and an empty tail
	ship      samples
	attempted int64
	failed    int64
	notes     []string
	replayed  int64 // journal records one replay applied
	memtable  int   // results that lived only in the memtable at the crash
}

// preCrash is the book the abandoned controller kept, read before it is
// left behind.
type preCrash struct {
	stats    core.StatsReport
	memtable int
}

func readBook(c *core.Controller) preCrash {
	return preCrash{stats: c.Stats(), memtable: c.ResultStore().MemtableLen()}
}

// checkRecovered compares a recovered controller with the pre-crash
// book. Recovery must requeue exactly the results whose payload died
// with the memtable and must find no torn tail; everything else —
// counters, leases, per-probe queues — must read as before the crash.
func checkRecovered(c *core.Controller, pre preCrash) error {
	d := c.DurabilityCounters()
	if got := d["recovery_results_requeued"]; got != int64(pre.memtable) {
		return fmt.Errorf("recovery_results_requeued %d, memtable held %d", got, pre.memtable)
	}
	if got := d["recovery_truncated_tail"]; got != 0 {
		return fmt.Errorf("recovery_truncated_tail %d", got)
	}
	st := c.Stats()
	want := pre.stats
	want.QueuedTasks += pre.memtable
	wantCounters := make(map[string]int64, len(want.Counters))
	for k, v := range want.Counters {
		wantCounters[k] = v
	}
	wantCounters["results_recorded"] -= int64(pre.memtable)
	switch {
	case st.Tick != want.Tick:
		return fmt.Errorf("tick %d, was %d", st.Tick, want.Tick)
	case st.Experiments != want.Experiments:
		return fmt.Errorf("%d experiments, were %d", st.Experiments, want.Experiments)
	case st.OutstandingLeases != want.OutstandingLeases:
		return fmt.Errorf("%d leases, were %d", st.OutstandingLeases, want.OutstandingLeases)
	case st.QueuedTasks != want.QueuedTasks:
		return fmt.Errorf("%d queued tasks, want %d", st.QueuedTasks, want.QueuedTasks)
	case !reflect.DeepEqual(st.Counters, wantCounters):
		return fmt.Errorf("counters %v, want %v", st.Counters, wantCounters)
	case len(st.Probes) != len(want.Probes):
		return fmt.Errorf("%d probes, were %d", len(st.Probes), len(want.Probes))
	}
	requeued := 0
	for i, p := range st.Probes {
		w := want.Probes[i]
		if p.ID != w.ID || p.Health != w.Health || p.LastSeen != w.LastSeen || p.Leased != w.Leased || p.Queued < w.Queued {
			return fmt.Errorf("probe %s reads %+v, was %+v", p.ID, p, w)
		}
		requeued += p.Queued - w.Queued
	}
	if requeued != pre.memtable {
		return fmt.Errorf("%d tasks requeued to probes, memtable held %d", requeued, pre.memtable)
	}
	return nil
}

// drill is the failover drill on an abandoned controller's directory:
// federation.ShipState to a fresh directory, then core.Recover of the
// copy, which is what a coordinator does with a dead shard. replay
// recovers the directory as the crash left it; snapshot recovers a copy
// that took a snapshot first, so its journal tail is empty. Every
// recovered controller is checked against the book of the one it copies.
type drill struct {
	src, scratch string
	cfg          core.DurabilityConfig
	pre          preCrash
	out          recoverOut
	n            int
	// The first recovered copy becomes the snapshot path's source: it
	// snapshots, its book is read, and it is abandoned like the original.
	snapSrc  string
	snapBook preCrash
}

func newDrill(src, scratch string, cfg core.DurabilityConfig, pre preCrash) *drill {
	return &drill{src: src, scratch: scratch, cfg: cfg, pre: pre, out: recoverOut{memtable: pre.memtable}}
}

func (d *drill) fail(format string, args ...any) {
	d.out.failed++
	if len(d.out.notes) < 5 {
		d.out.notes = append(d.out.notes, fmt.Sprintf(format, args...))
	}
}

// once ships from and recovers the copy into a directory of its own,
// timing the two steps apart. It returns the recovered controller, or
// nil when a step failed.
func (d *drill) once(from string, want preCrash, into *samples) (*core.Controller, string) {
	d.n++
	dst := filepath.Join(d.scratch, fmt.Sprintf("copy-%d", d.n))
	d.out.attempted++
	t0 := time.Now()
	if err := federation.ShipState(from, dst, "", ""); err != nil {
		d.fail("ship %s: %v", dst, err)
		return nil, dst
	}
	t1 := time.Now()
	c, err := core.Recover(dst, d.cfg)
	t2 := time.Now()
	if err != nil {
		d.fail("recover %s: %v", dst, err)
		return nil, dst
	}
	d.out.ship = append(d.out.ship, t1.Sub(t0))
	*into = append(*into, t2.Sub(t1))
	if err := checkRecovered(c, want); err != nil {
		d.fail("recovered %s differs from the book it was copied from: %v", dst, err)
	}
	return c, dst
}

// discard closes a copy that is done with and removes it, outside every
// timing, so that neither its heap nor its files ride along into the
// next repetition.
func (d *drill) discard(c *core.Controller, dir string) {
	if c != nil {
		if err := c.Close(); err != nil {
			d.fail("close %s: %v", dir, err)
		}
	}
	_ = os.RemoveAll(dir)
}

// replay is one recovery of the directory as the crash left it.
func (d *drill) replay() {
	c, dir := d.once(d.src, d.pre, &d.out.replay)
	if c == nil {
		d.discard(nil, dir)
		return
	}
	d.out.replayed = c.DurabilityCounters()["recovery_replayed"]
	if d.snapSrc != "" {
		d.discard(c, dir)
		return
	}
	if err := c.Snapshot(); err != nil {
		d.fail("snapshot: %v", err)
		d.discard(c, dir)
		return
	}
	d.snapSrc, d.snapBook = dir, readBook(c)
}

// snapshot is one recovery from a snapshot and an empty journal tail.
func (d *drill) snapshot() {
	if d.snapSrc == "" {
		return
	}
	c, dir := d.once(d.snapSrc, d.snapBook, &d.out.snapshot)
	d.discard(c, dir)
}

// done returns what the drill measured, samples ascending.
func (d *drill) done() recoverOut {
	d.out.replay, d.out.snapshot, d.out.ship = mergeSamples(d.out.replay), mergeSamples(d.out.snapshot), mergeSamples(d.out.ship)
	return d.out
}
