package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
)

// fleetOpts shapes one closed-loop fleet phase.
type fleetOpts struct {
	clients int
	// lease is the per-sync lease ask and delivery cap: a probe round is
	// one POST carrying at most that many results and asking for at most
	// that many tasks. A smaller lease spreads the same records over more
	// rounds, so over more ticks and journal records.
	lease int
	// cap, when set, is a safety net for a sick host: the phase stops
	// mid-round once it has run that long, undrained. The work is sized
	// to finish well inside it.
	cap time.Duration
	// afterRound runs between rounds, after the tick.
	afterRound func(round int)
	seed       int64
	tr         *tracer
	// keepOps keeps every delivered batch, for a traced run's
	// one-layer-alone replays.
	keepOps bool
}

// fleetOut is what one closed-loop fleet phase measured.
type fleetOut struct {
	wall      time.Duration
	roundWall []time.Duration // each fleet round with its tick, in order
	syncs     samples         // every sync round-trip, ascending
	ticks     samples
	accepted  int64
	attempted int64
	failed    int64
	rounds    int
	capped    bool // stopped by fleetOpts.cap, not by running out of work
	book      *oracle
	ops       []sentBatch // with fleetOpts.keepOps
}

// fleetClient is one closed-loop client: it owns a disjoint slice of
// the fleet and sends a probe's next sync only after the previous
// answer arrived.
type fleetClient struct {
	mine      []*simProbe
	lease     int
	syncs     samples
	accepted  int64
	attempted int64
	failed    int64
	book      *oracle
	keepOps   bool
	ops       []sentBatch
}

// runFleet drives the fleet until every probe has delivered every
// result: `clients` closed-loop clients over disjoint slices, each
// round one sync per live probe, and one tick per fleet round — never
// faster than the sync interval, or probes trip suspect-after, queues
// get reassigned and delivered counts collapse. Fixed work, so the
// wall time is the measurement.
func runFleet(b *backend, tp transport, fleet []*simProbe, o fleetOpts) fleetOut {
	clients, seed, tr := o.clients, o.seed, o.tr
	cs := make([]*fleetClient, clients)
	for i := range cs {
		cs[i] = &fleetClient{
			mine:    fleet[i*len(fleet)/clients : (i+1)*len(fleet)/clients],
			lease:   o.lease,
			book:    newOracle(),
			keepOps: o.keepOps,
		}
	}
	var out fleetOut
	t0 := time.Now()
	var capped atomic.Bool
	for {
		r0 := time.Now()
		live := make([]int, clients)
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *fleetClient) {
				defer wg.Done()
				for _, p := range c.mine {
					if p.done {
						continue
					}
					if o.cap > 0 && time.Since(t0) > o.cap {
						capped.Store(true)
						return
					}
					c.visit(tp, p, seed, tr)
					live[i]++
				}
			}(i, c)
		}
		wg.Wait()
		n := 0
		for _, l := range live {
			n += l
		}
		if n == 0 || capped.Load() {
			break
		}
		out.rounds++
		tt := time.Now()
		b.tick()
		out.ticks = append(out.ticks, time.Since(tt))
		out.roundWall = append(out.roundWall, time.Since(r0))
		if o.afterRound != nil {
			o.afterRound(out.rounds)
		}
	}
	out.wall = time.Since(t0)
	out.capped = capped.Load()
	out.book = newOracle()
	var parts []samples
	for _, c := range cs {
		parts = append(parts, c.syncs)
		out.accepted += c.accepted
		out.attempted += c.attempted
		out.failed += c.failed
		out.book.merge(c.book)
		out.ops = append(out.ops, c.ops...)
	}
	out.syncs = mergeSamples(parts...)
	out.ticks = mergeSamples(out.ticks)
	return out
}

// visit is one probe round: deliver up to c.lease results from the
// outbox and ask for up to c.lease tasks, in one sync. A failed round
// keeps the outbox, like a probe's spool would.
func (c *fleetClient) visit(tp transport, p *simProbe, seed int64, tr *tracer) {
	n := len(p.outbox)
	if n > c.lease {
		n = c.lease
	}
	batch := p.outbox[:n]
	sp := tr.begin("client.sync", -1)
	resp, d, err := tp.sync(core.SyncRequest{ProbeID: p.info.ID, Results: batch, Max: c.lease})
	tr.end(sp)
	c.attempted++
	c.syncs = append(c.syncs, d)
	if err != nil || resp.Accepted != n {
		c.failed++
		if err != nil {
			return
		}
	}
	c.accepted += int64(resp.Accepted)
	c.book.add(p.info, batch)
	if c.keepOps {
		c.ops = append(c.ops, sentBatch{info: p.info, results: append([]probes.Result(nil), batch...)})
	}
	p.outbox = append(p.outbox[:0], p.outbox[n:]...)
	if len(resp.Tasks) == 0 && len(p.outbox) == 0 {
		p.done = true
		return
	}
	c.execute(p, resp.Tasks, seed)
}

// execute fabricates the leased tasks' results into the outbox.
func (c *fleetClient) execute(p *simProbe, tasks []probes.Task, seed int64) {
	for _, t := range tasks {
		p.outbox = append(p.outbox, fabricate(seed, t))
	}
}

// auditExactlyOnce is fleetsim's audit against the controllers' own
// books: every accepted result recorded once, nothing deduplicated,
// rejected, requeued or reassigned, and — after a drained phase — no
// lease left open.
func auditExactlyOnce(b *backend, accepted int64, drained bool) error {
	var leases int
	sum := map[string]int64{}
	for _, c := range b.ctrls {
		st := c.Stats()
		leases += st.OutstandingLeases
		for k, v := range st.Counters {
			sum[k] += v
		}
	}
	if recorded := sum["results_recorded"]; recorded != accepted {
		return fmt.Errorf("clients saw %d accepted, controllers recorded %d", accepted, recorded)
	}
	for _, k := range []string{"results_deduped", "results_rejected", "tasks_requeued", "tasks_reassigned"} {
		if sum[k] != 0 {
			return fmt.Errorf("%s = %d, want 0", k, sum[k])
		}
	}
	if drained && leases != 0 {
		return fmt.Errorf("%d leases open after the fleet drained", leases)
	}
	return nil
}
