package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// shape is what tells the workloads apart: the system they boot and the
// fleet they put in front of it. Everything else — the lifecycle below
// and the metrics read off it — is the same for all of them, because
// the driver asks every workload for every end-to-end metric.
type shape struct {
	shards        int  // 0: a single controller; else a coordinator over that many
	probes, tasks int  // the fleet, and the tasks enqueued per probe
	lease         int  // per-sync lease ask and delivery cap
	snapshotEvery int  // obsd's -snapshot-every; 0 turns automatic snapshots off
	compact       bool // one CompactStore half-way through each pass
}

const (
	// passes is how many times a run boots a system, fills it and drains
	// the fleet through it: several set-ups to take the fastest of, and
	// a fleet round's wall as the median over the passes.
	passes = 3
	// toyProbes is the fleet of a toy-size run (smoke_test.go): every
	// code path, a second or two per workload.
	toyProbes = 48
	// minCycles is the least the window below repeats, however short.
	minCycles = 3
)

// runCtx is one run of one workload.
type runCtx struct {
	workload string
	seed     int64
	window   time.Duration // -seconds
	toy      bool
	dir      string    // this run's scratch directory, removed at exit
	start    time.Time // process start
	tr       *tracer   // nil in the end-to-end run

	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	notes     []string // why an operation counted as failed
	info      []string // human-readable lines for the report
}

func (c *runCtx) fail(format string, args ...any) {
	c.failed++
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

func (c *runCtx) infof(format string, args ...any) {
	c.info = append(c.info, fmt.Sprintf(format, args...))
}

// count folds a phase's own attempted/failed tally into the run's.
func (c *runCtx) count(attempted, failed int64, notes []string) {
	c.attempted += attempted
	c.failed += failed
	c.notes = append(c.notes, notes...)
}

// bootFleet is the set-up: boot the backend, register the fleet and
// enqueue the tasks, all through the handler.
func (c *runCtx) bootFleet(name string, sh shape) (*backend, []*simProbe, error) {
	cfg := obsdDefaults()
	cfg.SnapshotEvery = sh.snapshotEvery
	b, err := newBackend(filepath.Join(c.dir, name), sh.shards, cfg)
	if err != nil {
		return nil, nil, err
	}
	fleet := genFleet(c.seed, name, sh.probes)
	if err := b.register(fleet); err != nil {
		return nil, nil, err
	}
	spent, err := b.submit(fleet, sh.tasks)
	if err != nil {
		return nil, nil, err
	}
	if n := sh.probes * sh.tasks; n > 0 {
		c.layer["core.submit_ms_per_10k"] = ms(spent) * 10000 / float64(n)
	}
	return b, fleet, nil
}

// fleetPhase drains the fleet through the backend over HTTP with 2
// closed-loop clients and folds its tally and audit into the run. Two,
// because what the controller mutex and the journal's fsync cost shows
// only when a second request is waiting behind the first.
func (c *runCtx) fleetPhase(b *backend, fleet []*simProbe, sh shape) (fleetOut, error) {
	var compactErr error
	o := fleetOpts{clients: 2, lease: sh.lease, seed: c.seed, tr: c.tr, cap: 10 * c.window}
	if sh.compact {
		// Half-way, so merged and unmerged segments coexist afterwards.
		at := (sh.tasks/sh.lease + 1) / 2
		o.afterRound = func(r int) {
			if r == at {
				for _, ctrl := range b.ctrls {
					if err := ctrl.CompactStore(); err != nil {
						compactErr = err
					}
				}
			}
		}
	}
	out := runFleet(b, httpTransport{b.handler}, fleet, o)
	c.count(out.attempted, out.failed, nil)
	if out.capped {
		c.fail("fleet phase hit its %s safety cap undrained", o.cap)
	}
	if err := auditExactlyOnce(b, out.accepted, !out.capped); err != nil {
		c.fail("exactly-once audit: %v", err)
	}
	return out, compactErr
}

func medianOf(v []time.Duration) time.Duration { return mergeSamples(v).median() }

// lifecycle is the one sequence every workload runs on the system its
// shape describes.
//
// Fill, `passes` times over: boot, register and enqueue (set-up), then
// drain the fleet through the sync path until every result is in (fixed
// work). The first pass's system is closed and weighed on disk; the
// last one's is kept, abandoned as a crash would leave it: leases
// settled, the last results only in the memtable.
//
// Then, for three quarters of -seconds, one analyst and one operator take
// turns on what the last pass left: a query cycle on the live system
// (one paged walk, two windowed aggregates, one full aggregate), one
// recovery of a shipped copy of its directory as it is, one recovery
// of a copy that snapshotted first. Taking turns spreads every
// metric's samples over the whole window.
func (c *runCtx) lifecycle(sh shape) error {
	if c.toy {
		sh.probes = toyProbes
	}
	var (
		setups samples
		fills  []fleetOut
		b      *backend
		weight float64
	)
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		var fleet []*simProbe
		var err error
		if b, fleet, err = c.bootFleet(fmt.Sprintf("pass%d", p), sh); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		var lt *layerTap
		if p == 0 {
			lt = c.beginLayers(b)
		}
		out, err := c.fleetPhase(b, fleet, sh)
		if err != nil {
			return err
		}
		fills = append(fills, out)
		lt.fleetLayers(out)
		lt.fedFleetLayers(out)
		if p == passes-1 {
			break
		}
		stored := b.stored()
		if err := b.close(); err != nil {
			return err
		}
		if p == 0 {
			n, err := dirBytes(b.dir)
			if err != nil {
				return err
			}
			weight = float64(n) / float64(stored)
			lt.diskLayers(stored)
		}
		if err := os.RemoveAll(b.dir); err != nil {
			return err
		}
	}
	c.e2e["setup_s"] = sec(mergeSamples(setups).best())
	c.e2e["bytes_per_result"] = weight
	last := c.recordFills(fills)

	// From here on the last system is abandoned, not closed: what is on
	// disk is what a crash would have left. In a federation the drill is
	// the failover of one shard.
	ctrl, src, expFormat := b.ctrls[0], b.dir, "exp-%04d"
	if b.coord != nil {
		src, expFormat = filepath.Join(b.dir, "s0"), "fexp-%04d" // the coordinator mints the ids
	}
	pre := readBook(ctrl)
	if pre.memtable == 0 {
		c.fail("the fill left an empty memtable; recovery has nothing to requeue")
	}
	lt := c.beginLayers(b)
	q := newQueryClient(httpTransport{b.handler}, last.book, int64(last.rounds), b.coord == nil, c.seed, c.tr)
	d := newDrill(src, filepath.Join(c.dir, "recovered"), b.cfg, pre)
	deadline := time.Now().Add(c.window * 3 / 4)
	for i := 0; i < minCycles || time.Now().Before(deadline); i++ {
		q.cycle()
		d.replay()
		d.snapshot()
	}
	q.out.sort()
	r := d.done()
	c.count(q.out.attempted, q.out.failed, q.out.notes)
	c.count(r.attempted, r.failed, r.notes)
	c.recordQueries(q.out)
	c.recordRecover(r)
	lt.queryLayers(q.out, b.stored())
	lt.fedQueryLayers(q.out)
	c.layer["federation.ship_state_ms"] = ms(r.ship.median())
	if b.coord != nil {
		// A hedge is a second attempt at a slow shard call, not a wrong
		// answer: it is reported (federation.hedges) but fails nothing. A
		// degraded query answered without one of the shards, and does.
		if n := b.coord.Counters()["fed_degraded_queries"]; n != 0 {
			c.fail("%d degraded queries", n)
		}
	}
	if c.tr != nil {
		c.traceOverhead(c.layer["client.results_per_s"])
		if err := c.recoverLayers(ctrl, src, expFormat, r); err != nil {
			return err
		}
		if b.coord != nil {
			if err := c.replayFed(b); err != nil {
				return err
			}
		} else {
			c.replayQueries(b, last)
			// The write path's instruments were read across the first
			// pass, so its wall is the one the shares are of.
			if err := c.replayFleet(sh, fills[0]); err != nil {
				return err
			}
		}
	}
	return b.close()
}

// recordFills sets the write path's metrics from the passes and returns
// the last pass. A fleet round is the same work in every pass, so its
// wall time is taken as the median over the passes; the fleet's drain
// time is the sum of its rounds. The rate that gives is reported, but
// not as an end-to-end metric: three fifths of a sync is the journal's
// fsync, and what an fsync costs on the sandbox's shared disk drifts by
// a third over a quarter of an hour, which no statistic inside one run
// takes out.
func (c *runCtx) recordFills(fills []fleetOut) fleetOut {
	last := fills[len(fills)-1]
	var syncs []samples
	for _, f := range fills {
		if f.rounds != last.rounds || f.accepted != last.accepted {
			c.fail("passes differ: %d rounds and %d results, then %d and %d", f.rounds, f.accepted, last.rounds, last.accepted)
			return last
		}
		syncs = append(syncs, f.syncs)
	}
	var drain time.Duration
	for r := 0; r < last.rounds; r++ {
		var walls []time.Duration
		for _, f := range fills {
			walls = append(walls, f.roundWall[r])
		}
		drain += medianOf(walls)
	}
	all := mergeSamples(syncs...)
	c.e2e["sync_best_ms"] = ms(all.best())
	c.layer["client.results_per_s"] = float64(last.accepted) / drain.Seconds()
	c.layer["client.sync_p50_ms"] = ms(all.median())
	c.infof("fill: %d passes of %d syncs, %d results, %d rounds; drain %.3fs = %.0f results/s (passes: %s); sync best=%.3fms %s",
		len(fills), len(last.syncs), last.accepted, last.rounds, drain.Seconds(), float64(last.accepted)/drain.Seconds(),
		passWalls(fills), ms(all.best()), all.describe())
	return last
}

func passWalls(fills []fleetOut) string {
	s := ""
	for i, f := range fills {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3fs", f.wall.Seconds())
	}
	return s
}

// recordQueries sets the four query metrics from the cycles.
func (c *runCtx) recordQueries(q queryOut) {
	c.e2e["scan_page_best_ms"] = ms(q.first.best())
	c.e2e["scan_walk_best_s"] = sec(q.walks.best())
	c.e2e["agg_full_best_ms"] = ms(q.aggFull.best())
	c.e2e["agg_window_best_ms"] = ms(q.aggWindow.best())
	c.layer["client.scan_page_p50_ms"] = ms(q.pages.median())
	c.layer["client.agg_full_p50_ms"] = ms(q.aggFull.median())
	c.layer["client.agg_window_p50_ms"] = ms(q.aggWindow.median())
	if q.busy > 0 {
		c.layer["client.queries_per_s"] = float64(q.queries) / q.busy.Seconds()
	}
	c.infof("queries: %d in %.2fs of cycles; first page best=%.3fms %s; any page %s; walk best=%.3fs p50=%.3fs n=%d; agg_full best=%.3fms %s; agg_window best=%.3fms %s",
		q.queries, q.busy.Seconds(), ms(q.first.best()), q.first.describe(), q.pages.describe(), sec(q.walks.best()), sec(q.walks.median()), len(q.walks),
		ms(q.aggFull.best()), q.aggFull.describe(), ms(q.aggWindow.best()), q.aggWindow.describe())
}

// recordRecover sets the two recovery metrics from the drill.
func (c *runCtx) recordRecover(r recoverOut) {
	c.e2e["recover_replay_best_s"] = sec(r.replay.best())
	c.e2e["recover_snapshot_best_s"] = sec(r.snapshot.best())
	c.layer["client.recover_replay_p50_s"] = sec(r.replay.median())
	c.layer["client.recover_snapshot_p50_s"] = sec(r.snapshot.median())
	c.infof("recover: %d journal records replayed, %d results only in the memtable; as left best=%.3fms %s; from snapshot best=%.3fms %s; ship %s",
		r.replayed, r.memtable, ms(r.replay.best()), r.replay.describe(), ms(r.snapshot.best()), r.snapshot.describe(), r.ship.describe())
}

// cleanup removes the run's scratch directory.
func (c *runCtx) cleanup() {
	_ = os.RemoveAll(c.dir)
}
