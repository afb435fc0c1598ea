package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// The tick's reference: the liveness sweep and lease reaper as they were
// written before the peer policy became one function, each dead probe's
// peer picked by up to two predicate walks that collect and sort their
// matches. TestTickMatchesReferenceSweep steps a controller ticked
// through them beside one ticked through Tick, so any rewrite of the
// tick's bookkeeping is held to this answer.

// refTick is Tick with the reference sweep and reaper as its apply.
func (c *Controller) refTick(n int) {
	c.mu.Lock()
	_ = c.mutateLocked(opTick, tickOp{N: n}, func() {
		for i := 0; i < n; i++ {
			c.now++
			c.refSweepLivenessLocked()
			c.refReapLocked()
		}
	})
	c.mu.Unlock()
	c.adm.Refill(n)
}

// refSweepLivenessLocked updates probe health from ticks-since-contact and
// reassigns the queues of probes that just died.
func (c *Controller) refSweepLivenessLocked() {
	ids := make([]string, 0, len(c.probes))
	for id := range c.probes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := c.probes[id]
		idle := c.now - st.lastSeen
		switch {
		case idle >= c.DeadAfter:
			if st.health != ProbeDead {
				st.health = ProbeDead
				c.stats.Inc("probes_dead")
			}
			// Reassign on every sweep, not just on the dead
			// transition: tasks can be enqueued to a probe that is
			// already dead (experiment approved after the probe
			// stopped reporting), and a queue left in place for
			// lack of an eligible peer should move as soon as one
			// appears.
			c.refReassignQueueLocked(id)
		case idle >= c.SuspectAfter:
			if st.health == ProbeAlive {
				st.health = ProbeSuspect
				c.stats.Inc("probes_suspect")
			}
		}
	}
}

// refReassignQueueLocked moves a dead probe's pending queue onto an alive
// peer: same ASN preferred, then same country. With no eligible peer
// the queue stays put in case the probe revives.
func (c *Controller) refReassignQueueLocked(deadID string) {
	q := c.queues[deadID]
	if len(q) == 0 {
		return
	}
	dead := c.probes[deadID]
	peer := c.refPickPeerLocked(deadID, func(p ProbeInfo) bool { return p.ASN == dead.info.ASN })
	if peer == "" {
		peer = c.refPickPeerLocked(deadID, func(p ProbeInfo) bool { return p.Country == dead.info.Country })
	}
	if peer == "" {
		return
	}
	c.queues[peer] = append(c.queues[peer], q...)
	delete(c.queues, deadID)
	c.stats.Add("tasks_reassigned", int64(len(q)))
	c.notifyWaitersLocked(peer)
}

// refPickPeerLocked returns the best reassignment target (other than
// exclude) matching the predicate: alive probes beat suspect ones
// (dead ones are ineligible), ties broken by id for determinism.
func (c *Controller) refPickPeerLocked(exclude string, match func(ProbeInfo) bool) string {
	var alive, suspect []string
	for id, st := range c.probes {
		if id == exclude || st.health == ProbeDead || !match(st.info) {
			continue
		}
		if st.health == ProbeAlive {
			alive = append(alive, id)
		} else {
			suspect = append(suspect, id)
		}
	}
	if len(alive) > 0 {
		sort.Strings(alive)
		return alive[0]
	}
	if len(suspect) > 0 {
		sort.Strings(suspect)
		return suspect[0]
	}
	return ""
}

// refReapLocked requeues tasks whose lease expired without a result.
func (c *Controller) refReapLocked() {
	keys := make([]string, 0, len(c.leases))
	for k, l := range c.leases {
		if l.deadline <= c.now {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := c.leases[k]
		delete(c.leases, k)
		c.stats.Inc("leases_expired")
		if c.recorded[l.task.Experiment][l.task.ID] {
			continue // completed while the lease record lingered
		}
		target := l.probeID
		if st, ok := c.probes[target]; ok && st.health == ProbeDead {
			// The holder is gone; requeueing onto it would stall until
			// revival, so route through the reassignment policy.
			if peer := c.refPickPeerLocked(target, func(p ProbeInfo) bool { return p.ASN == st.info.ASN }); peer != "" {
				target = peer
			} else if peer := c.refPickPeerLocked(target, func(p ProbeInfo) bool { return p.Country == st.info.Country }); peer != "" {
				target = peer
			}
		}
		c.queues[target] = append(c.queues[target], l.task)
		c.stats.Inc("tasks_requeued")
		c.notifyWaitersLocked(target)
	}
}

// TestTickMatchesReferenceSweep steps two controllers through the same
// seeded schedules of register, sync, submit, approve (often to a probe
// that is already dead), tick, silence and revive: one ticks through
// Tick, the other through the reference above. Most of each fleet's ASNs
// and countries hold one probe, so dead probes' queues are often
// stranded with no peer until one registers or revives. After every tick
// the two must hold the same queues, leases, probe book and
// obs_pipeline_events_total; every sync must grant the same tasks.
func TestTickMatchesReferenceSweep(t *testing.T) {
	var stranded, reassigned, requeued, revived int64
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pair := [2]*Controller{NewController("o"), NewController("o")}
		ttl, suspect := 1+rng.Int63n(4), 1+rng.Int63n(3)
		dead := suspect + 1 + rng.Int63n(3)
		for _, c := range pair {
			c.LeaseTTL, c.SuspectAfter, c.DeadAfter = ttl, suspect, dead
		}
		var ids []string
		silent := map[string]bool{}
		held := map[string][]probes.Task{}
		var pending []string
		register := func() {
			id := fmt.Sprintf("p%02d", len(ids))
			// Half the probes share three ASNs and the rest are alone
			// in theirs; a third are alone in their country and the
			// rest share two.
			asn := topology.ASN(64500 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				asn = topology.ASN(65000 + len(ids))
			}
			country := []string{"RW", "KE"}[rng.Intn(2)]
			if rng.Intn(3) == 0 {
				country = fmt.Sprintf("X%02d", len(ids))
			}
			for _, c := range pair {
				mustRegister(t, c, id, asn, country)
			}
			ids = append(ids, id)
		}
		for i := 0; i < 6; i++ {
			register()
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(100); {
			case r < 5 && len(ids) < 30:
				register()
			case r < 40:
				// A sync from a probe that is not silent: results for
				// some of what it holds, and maybe a lease ask. A
				// silent probe syncing is a revival.
				id := ids[rng.Intn(len(ids))]
				if silent[id] {
					if rng.Intn(4) != 0 {
						continue
					}
					delete(silent, id)
				}
				var rs []probes.Result
				keep := held[id][:0:0]
				for _, task := range held[id] {
					if rng.Intn(3) == 0 {
						keep = append(keep, task)
					} else {
						rs = append(rs, okResult(task))
					}
				}
				held[id] = keep
				max := -1
				if rng.Intn(2) == 0 {
					max = 1 + rng.Intn(4)
				}
				var resps [2]SyncResponse
				for k, c := range pair {
					resp, err := c.SyncProbe(id, rs, max)
					if err != nil {
						t.Fatalf("seed %d step %d: sync %s: %v", seed, step, id, err)
					}
					resps[k] = resp
				}
				if !reflect.DeepEqual(resps[0], resps[1]) {
					t.Fatalf("seed %d step %d: sync %s answers %+v by the reference, %+v by Tick", seed, step, id, resps[0], resps[1])
				}
				held[id] = append(held[id], resps[0].Tasks...)
			case r < 50:
				// A silent probe keeps its leases but never reports.
				id := ids[rng.Intn(len(ids))]
				silent[id] = true
			case r < 62:
				// An experiment for one to three probes, approved now
				// by its trusted owner or left pending for later.
				var asg []probes.Assignment
				for n := 1 + rng.Intn(3); n > 0; n-- {
					asg = append(asg, pingAssignments(ids[rng.Intn(len(ids))], 1+rng.Intn(3))...)
				}
				owner := "o"
				if rng.Intn(2) == 0 {
					owner = "guest"
				}
				var expID string
				for _, c := range pair {
					exp, err := c.SubmitExperiment(owner, "tick oracle", asg)
					if err != nil {
						t.Fatal(err)
					}
					expID = exp.ID
				}
				if owner != "o" {
					pending = append(pending, expID)
				}
			case r < 70 && len(pending) > 0:
				// Approval lands late, often on probes already dead.
				expID := pending[0]
				pending = pending[1:]
				for _, c := range pair {
					if err := c.Backend().Approve(context.Background(), expID); err != nil {
						t.Fatal(err)
					}
				}
			default:
				pair[0].refTick(1)
				pair[1].Tick(1)
				if diff := tickDiff(pair[0], pair[1]); diff != "" {
					t.Fatalf("seed %d step %d (tick %d): %s", seed, step, pair[1].Now(), diff)
				}
				for id, st := range pair[1].probes {
					if st.health == ProbeDead && len(pair[1].queues[id]) > 0 {
						stranded++
					}
				}
			}
		}
		counters := pair[1].stats.Snapshot()
		reassigned += counters["tasks_reassigned"]
		requeued += counters["tasks_requeued"]
		revived += counters["probes_revived"]
	}
	t.Logf("%d stranded queue-ticks, %d tasks reassigned, %d requeued, %d probes revived", stranded, reassigned, requeued, revived)
	// The schedules reach every branch the tick has.
	if stranded == 0 || reassigned == 0 || requeued == 0 || revived == 0 {
		t.Fatalf("schedules too tame: %d stranded queue-ticks, %d reassigned, %d requeued, %d revived", stranded, reassigned, requeued, revived)
	}
}

// tickDiff names the first of queues, leases, probe book and pipeline
// counters on which two controllers differ, or returns "".
func tickDiff(want, got *Controller) string {
	for _, part := range []struct {
		name      string
		want, got any
	}{
		{"queues", want.queues, got.queues},
		{"leases", want.leases, got.leases},
		{"probes", want.probes, got.probes},
		{"obs_pipeline_events_total", want.stats.Snapshot(), got.stats.Snapshot()},
	} {
		if !reflect.DeepEqual(part.want, part.got) {
			return fmt.Sprintf("%s differ:\n reference %v\n tick      %v", part.name, showMap(part.want), showMap(part.got))
		}
	}
	return ""
}

// showMap prints a map with its keys sorted and pointers followed.
func showMap(m any) string {
	v := reflect.ValueOf(m)
	keys := make([]string, 0, v.Len())
	for _, k := range v.MapKeys() {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		e := v.MapIndex(reflect.ValueOf(k))
		if e.Kind() == reflect.Pointer {
			e = e.Elem()
		}
		out += fmt.Sprintf("%s:%+v ", k, e.Interface())
	}
	return out
}
