package core

// book.go is the controller's journaled state machine: the state journal
// records change and snapshots carry, and one apply per record kind, live
// and in replay alike. A book holds no lock and does no I/O; what an apply
// needs from outside comes in as an argument (the store's sealed
// watermark) or leaves through the side channels the Controller hands it,
// counters and wake-ups. The lint's book-pure rule keeps it that way.

import (
	"fmt"
	"slices"
	"sort"

	"github.com/afrinet/observatory/internal/probes"
)

// probeState is the book on one registered probe.
type probeState struct {
	info     ProbeInfo
	lastSeen int64
	health   ProbeHealth
}

// leaseRec is one outstanding task lease.
type leaseRec struct {
	task     probes.Task
	probeID  string
	deadline int64 // tick at which the lease expires
}

// book is the journaled state, the knobs its applies read, and the side
// channels they write.
type book struct {
	probes      map[string]*probeState
	experiments map[string]*Experiment
	queues      map[string][]probes.Task // per-probe pending tasks; an empty queue has no key
	// taskIDs indexes each experiment's valid task IDs; recorded marks
	// the ones that already have a result (the dedup set).
	taskIDs   map[string]map[string]bool
	recorded  map[string]map[string]bool
	leases    map[string]*leaseRec // keyed by experiment+"/"+task id
	trusted   map[string]bool
	now       int64
	nextExpID int
	// submitIDs dedups experiment submissions by client request id, so
	// a retried Submit whose first delivery landed returns the existing
	// experiment instead of creating a duplicate.
	submitIDs map[string]string
	// The served* tallies count granted tasks per coverage dimension for
	// the bias-aware scheduler (scheduler.go).
	servedCountry map[string]int64
	servedASN     map[string]int64
	servedTotal   int64
	// unsealed is what a crash now would lose: the recorded refs whose
	// payload sits above the store's sealed watermark, in store order with
	// their sequence numbers; at most one memtable of them, pruned as
	// segments seal. unsealedUnknown is set while a recovery is reading a
	// directory that does not say where its refs sit, which Recover refuses.
	unsealed        []unsealedRef
	unsealedUnknown bool

	// LeaseTTL is how many ticks a probe has to return a leased task's
	// result before the task is requeued.
	LeaseTTL int64
	// SuspectAfter / DeadAfter are how many silent ticks move a probe
	// to suspect / dead.
	SuspectAfter int64
	DeadAfter    int64
	coverage     CoverageTargets // scheduler targets (ConfigureCoverage), not journaled

	// stats counts pipeline events (the Controller's obs family, which
	// snapshots carry); wake wakes the sync calls parked on a probe's queue.
	stats interface {
		Inc(name string)
		Add(name string, delta int64)
		Snapshot() map[string]int64
	}
	wake func(probeID string)
}

// newBook is an empty book with the default tick knobs, which suit
// cmd/obsd's one-tick-per-sweep cadence.
func newBook() book {
	return book{
		probes:        make(map[string]*probeState),
		experiments:   make(map[string]*Experiment),
		queues:        make(map[string][]probes.Task),
		taskIDs:       make(map[string]map[string]bool),
		recorded:      make(map[string]map[string]bool),
		leases:        make(map[string]*leaseRec),
		trusted:       make(map[string]bool),
		submitIDs:     make(map[string]string),
		servedCountry: make(map[string]int64),
		servedASN:     make(map[string]int64),
		LeaseTTL:      3,
		SuspectAfter:  2,
		DeadAfter:     5,
	}
}

func (b *book) applyRegister(p ProbeInfo) {
	st, ok := b.probes[p.ID]
	if !ok {
		st = &probeState{}
		b.probes[p.ID] = st
	}
	st.info = p
	b.touch(st)
}

// touch records probe contact at the current tick, reviving dead probes.
func (b *book) touch(st *probeState) {
	st.lastSeen = b.now
	if st.health == ProbeDead {
		b.stats.Inc("probes_revived")
	}
	st.health = ProbeAlive
}

func (b *book) applyTick(n int) {
	for i := 0; i < n; i++ {
		b.now++
		b.sweepLiveness()
		b.reap()
	}
}

// sweepLiveness updates probe health from ticks-since-contact and
// reassigns the queues of probes that just died.
func (b *book) sweepLiveness() {
	ids := make([]string, 0, len(b.probes))
	for id := range b.probes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := b.probes[id]
		idle := b.now - st.lastSeen
		switch {
		case idle >= b.DeadAfter:
			if st.health != ProbeDead {
				st.health = ProbeDead
				b.stats.Inc("probes_dead")
			}
			// Reassign on every sweep, not just on the dead
			// transition: tasks can be enqueued to a probe that is
			// already dead (experiment approved after the probe
			// stopped reporting), and a queue left in place for
			// lack of an eligible peer should move as soon as one
			// appears.
			b.reassignQueue(id)
		case idle >= b.SuspectAfter:
			if st.health == ProbeAlive {
				st.health = ProbeSuspect
				b.stats.Inc("probes_suspect")
			}
		}
	}
}

// reassignQueue moves a dead probe's pending queue onto its peer
// (peerFor). With no eligible peer the queue stays put in case the probe
// revives.
func (b *book) reassignQueue(deadID string) {
	q := b.queues[deadID]
	if len(q) == 0 {
		return
	}
	peer := b.peerFor(deadID, b.probes[deadID].info)
	if peer == "" {
		return
	}
	b.queues[peer] = append(b.queues[peer], q...)
	delete(b.queues, deadID)
	b.stats.Add("tasks_reassigned", int64(len(q)))
	b.wake(peer)
}

// peerFor is the one reassignment policy for a dead probe's work: the
// smallest id of the first non-empty rank among same-ASN alive, same-ASN
// suspect, same-country alive and same-country suspect probes (dead ones
// are ineligible), or "" when every rank is empty. One pass keeps each
// rank's smallest id.
func (b *book) peerFor(deadID string, dead ProbeInfo) string {
	var best [4]string
	for id, st := range b.probes {
		rank := 0
		switch {
		case id == deadID || st.health == ProbeDead:
			continue
		case st.info.ASN == dead.ASN:
		case st.info.Country == dead.Country:
			rank = 2
		default:
			continue
		}
		if st.health != ProbeAlive {
			rank++
		}
		if best[rank] == "" || id < best[rank] {
			best[rank] = id
		}
	}
	for _, id := range best {
		if id != "" {
			return id
		}
	}
	return ""
}

// reap requeues tasks whose lease expired without a result.
func (b *book) reap() {
	keys := make([]string, 0, len(b.leases))
	for k, l := range b.leases {
		if l.deadline <= b.now {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := b.leases[k]
		delete(b.leases, k)
		b.stats.Inc("leases_expired")
		if b.recorded[l.task.Experiment][l.task.ID] {
			continue // completed while the lease record lingered
		}
		target := l.probeID
		if st, ok := b.probes[target]; ok && st.health == ProbeDead {
			// The holder is gone; requeueing onto it would stall until
			// revival, so route through the reassignment policy.
			if peer := b.peerFor(target, st.info); peer != "" {
				target = peer
			}
		}
		b.queues[target] = append(b.queues[target], l.task)
		b.stats.Inc("tasks_requeued")
		b.wake(target)
	}
}

func (b *book) applySubmit(op submitOp) *Experiment {
	id := op.ExpID
	if id == "" {
		b.nextExpID++
		id = fmt.Sprintf("exp-%04d", b.nextExpID)
	}
	exp := &Experiment{
		ID:          id,
		Owner:       op.Owner,
		Description: op.Description,
		Status:      StatusPending,
		Assignments: op.Assignments,
	}
	ids := make(map[string]bool, len(exp.Assignments))
	for i := range exp.Assignments {
		exp.Assignments[i].Task.Experiment = exp.ID
		if exp.Assignments[i].Task.ID == "" {
			exp.Assignments[i].Task.ID = TaskID(exp.ID, i)
		}
		ids[exp.Assignments[i].Task.ID] = true
	}
	b.experiments[exp.ID] = exp
	b.taskIDs[exp.ID] = ids
	b.recorded[exp.ID] = make(map[string]bool)
	if op.RequestID != "" {
		b.submitIDs[op.RequestID] = exp.ID
	}
	if b.trusted[op.Owner] {
		b.schedule(exp)
	}
	return exp
}

func (b *book) applyApprove(expID string) {
	if exp, ok := b.experiments[expID]; ok && exp.Status == StatusPending {
		b.schedule(exp)
	}
}

func (b *book) applyReject(expID string) {
	if exp, ok := b.experiments[expID]; ok && exp.Status != StatusApproved {
		exp.Status = StatusRejected
	}
}

// schedule approves exp and queues each of its tasks on its probe. Each
// queue it touches grows once, and each probe is woken once, in the order
// of its first assignment.
func (b *book) schedule(exp *Experiment) {
	exp.Status = StatusApproved
	counts := make(map[string]int)
	var order []string
	for _, a := range exp.Assignments {
		if counts[a.ProbeID]++; counts[a.ProbeID] == 1 {
			order = append(order, a.ProbeID)
		}
	}
	for _, id := range order {
		b.queues[id] = slices.Grow(b.queues[id], counts[id])
	}
	for _, a := range exp.Assignments {
		b.queues[a.ProbeID] = append(b.queues[a.ProbeID], a.Task)
	}
	for _, id := range order {
		b.wake(id)
	}
}

// applySync is the journaled apply of one batched round, live or
// replayed, and the only code that applies probe contact, result refs or
// a lease grant: contact, then result bookkeeping, then the grant —
// results first so a task this very batch completed is dropped rather
// than re-leased if a requeued copy sits in the queue. sealed is the
// results store's watermark (recordRefs). The probe lookup tolerates a
// miss because journals written before sync was the only protocol hold
// lease grants to unregistered ids. The granted slice is never nil, so
// every route encodes "no tasks" as [].
func (b *book) applySync(op syncOp, sealed uint64) (int, []probes.Task) {
	if st, ok := b.probes[op.ProbeID]; ok {
		b.touch(st)
	}
	b.stats.Inc("syncs")
	accepted := b.recordRefs(op.Refs, op.Seq, sealed)
	tasks := []probes.Task{}
	if op.Max > 0 {
		tasks = b.grant(op.ProbeID, op.Max)
	}
	return accepted, tasks
}

// grant is the queue-pop half of a sync round: pop up to max tasks
// (after the coverage allowance trims the ask for overrepresented
// vantage points), drop copies that completed elsewhere (a requeued copy
// racing its original delivery), and record the grant in the lease table
// (each lease LeaseTTL ticks) and the served-coverage tallies.
func (b *book) grant(probeID string, max int) []probes.Task {
	q := b.queues[probeID]
	if max <= 0 || max > len(q) {
		max = len(q)
	}
	if st, ok := b.probes[probeID]; ok {
		max = b.allowance(st.info, max)
	}
	lease := make([]probes.Task, 0, max)
	taken := 0
	for _, t := range q {
		if taken == max {
			break
		}
		taken++
		if b.recorded[t.Experiment][t.ID] {
			b.stats.Inc("tasks_dropped_completed")
			continue
		}
		lease = append(lease, t)
		b.leases[leaseKey(t)] = &leaseRec{task: t, probeID: probeID, deadline: b.now + b.LeaseTTL}
	}
	if b.queues[probeID] = q[taken:]; taken == len(q) {
		delete(b.queues, probeID) // drained
	}
	b.stats.Add("tasks_leased", int64(len(lease)))
	if len(lease) > 0 {
		if st, ok := b.probes[probeID]; ok {
			b.recordServed(st.info, len(lease))
		}
	}
	return lease
}

func leaseKey(t probes.Task) string { return t.Experiment + "/" + t.ID }

// allowance trims a grant's ask for an overrepresented vantage point: the
// combined allowance is the stricter of the country and ASN dimensions
// (coverageAllowance). With no targets installed the ask passes through
// untouched (naive FIFO).
func (b *book) allowance(p ProbeInfo, max int) int {
	if !b.coverage.enabled() || max <= 1 {
		return max
	}
	a := coverageAllowance(b.servedCountry, b.servedTotal, b.coverage.Country, p.Country, max)
	if c := coverageAllowance(b.servedASN, b.servedTotal, b.coverage.ASN, asnKey(p.ASN), max); c < a {
		a = c
	}
	return a
}

// recordServed tallies a grant into the coverage book. Runs inside the
// journaled lease apply regardless of whether targets are installed, so
// turning the scheduler on later starts from an honest history and
// replay equivalence never depends on config.
func (b *book) recordServed(p ProbeInfo, n int) {
	b.servedTotal += int64(n)
	b.servedCountry[p.Country] += int64(n)
	b.servedASN[asnKey(p.ASN)] += int64(n)
}

// recordRefs is the bookkeeping half of a result batch: dedup, lease
// clearing, counters, and the unsealed list, pruned against the store's
// sealed watermark. Payloads are not touched — the live path stored them
// before journaling, and replay finds them already in the store. The refs
// accepted here are exactly the ones stageResultsLocked stored a payload
// for, in the same order, so they hold the consecutive sequence numbers
// ending at seq. A batch that accepts refs without saying where they sit
// (a record from before seq was journaled) leaves the book's position
// unknown, and Recover refuses it.
func (b *book) recordRefs(refs []resultRef, seq, sealed uint64) int {
	first := len(b.unsealed)
	for _, ref := range refs {
		if b.recorded[ref.Experiment] == nil || b.recorded[ref.Experiment][ref.TaskID] {
			b.stats.Inc("results_deduped")
			continue
		}
		b.recorded[ref.Experiment][ref.TaskID] = true
		delete(b.leases, ref.Experiment+"/"+ref.TaskID)
		b.stats.Inc("results_recorded")
		b.unsealed = append(b.unsealed, unsealedRef{resultRef: ref})
	}
	accepted := len(b.unsealed) - first
	if accepted == 0 {
		return 0
	}
	if seq < uint64(accepted) {
		b.unsealedUnknown = true
		b.unsealed = b.unsealed[:first]
		return accepted
	}
	for i := first; i < len(b.unsealed); i++ {
		b.unsealed[i].Seq = seq - uint64(len(b.unsealed)-1-i)
	}
	b.pruneUnsealed(sealed)
	return accepted
}

// pruneUnsealed drops the entries a sealed segment now covers. The list
// is in store order, so they are a prefix.
func (b *book) pruneUnsealed(sealed uint64) {
	i := 0
	for i < len(b.unsealed) && b.unsealed[i].Seq <= sealed {
		i++
	}
	b.unsealed = b.unsealed[i:]
}

// applyRequeue is opRequeue's apply, live and replayed: un-record each
// ref, requeue its task to the first probe it was assigned to, and drop
// it from the unsealed list.
func (b *book) applyRequeue(refs []resultRef) {
	gone := make(map[resultRef]bool, len(refs))
	// Each experiment's assignments are indexed by task once: a crash can
	// strand a whole memtable of tasks, and a search per task is
	// lost x assignments.
	first := map[string]map[string]int{}
	for _, ref := range refs {
		if !b.recorded[ref.Experiment][ref.TaskID] {
			continue
		}
		delete(b.recorded[ref.Experiment], ref.TaskID)
		b.stats.Add("results_recorded", -1)
		gone[ref] = true
		assigned := b.experiments[ref.Experiment].Assignments
		byTask, ok := first[ref.Experiment]
		if !ok {
			byTask = make(map[string]int, len(assigned))
			for i := len(assigned) - 1; i >= 0; i-- {
				byTask[assigned[i].Task.ID] = i // the first assignment of a task wins
			}
			first[ref.Experiment] = byTask
		}
		if i, ok := byTask[ref.TaskID]; ok {
			b.queues[assigned[i].ProbeID] = append(b.queues[assigned[i].ProbeID], assigned[i].Task)
		}
	}
	keep := b.unsealed[:0]
	for _, u := range b.unsealed {
		if !gone[u.resultRef] {
			keep = append(keep, u)
		}
	}
	b.unsealed = keep
}
