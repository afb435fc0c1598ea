package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// ErrNoShards is returned for key routing against an empty shard map.
var ErrNoShards = errors.New("federation: no shards in the map")

// Config tunes the coordinator. The zero value gets the documented
// defaults.
type Config struct {
	// SuspectAfter / DeadAfter are how many silent coordinator ticks
	// move a shard to suspect / dead — the probe-liveness state machine
	// reapplied one level up (defaults 3 / 6).
	SuspectAfter int64
	DeadAfter    int64
	// QueryDeadline bounds each per-shard call in a fan-out; a shard
	// that blows it is treated as missing for that query (default 2s).
	QueryDeadline time.Duration
	// HedgeAfter launches a second attempt against the same shard if
	// the first hasn't answered yet — tail-latency insurance for
	// idempotent calls (default 250ms; <= 0 disables hedging).
	HedgeAfter time.Duration
	// AutoFailover lets Tick fail a dead shard over through the
	// Failover hook as soon as it is declared dead.
	AutoFailover bool
	// Admission bounds the coordinator front end; zero admits all.
	Admission core.AdmissionConfig
}

func (c Config) withDefaults() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.QueryDeadline <= 0 {
		c.QueryDeadline = 2 * time.Second
	}
	return c
}

// replayOps is every journal record kind a coordinator can replay: the
// op its data decodes into and the book's apply, which the live mutation
// runs too.
var replayOps = map[string]journal.Op[*fedBook]{
	opShardAdd:      journal.OpOf((*fedBook).addShard),
	opShardFailover: journal.OpOf((*fedBook).failover),
	opFedSubmit:     journal.OpOf((*fedBook).submit),
}

// shardState is the coordinator's run-scoped state on one shard, which no
// replay rebuilds: the slot it calls, its health and latency series. id,
// slot and hist never change, so a call reads them without the lock;
// attaching another slot replaces the whole state.
type shardState struct {
	id     string
	slot   Shard // nil until attached (recovered coordinator)
	hist   *obs.Histogram
	health core.ProbeHealth
	// lastSeen is the coordinator tick of the last successful health
	// probe (or attach), driving the alive→suspect→dead machine.
	lastSeen int64
	failing  bool // a failover of the shard is running: another is dropped
}

// ShardStatus is one shard's externally-visible state, served by
// GET /api/v1/shards.
type ShardStatus struct {
	ID     string           `json:"id"`
	Epoch  int              `json:"epoch"`
	Health core.ProbeHealth `json:"health"`
}

// Coordinator fronts N shards with the v1 API: probe traffic routes to
// the owning shard by consistent hashing, experiments fan out to every
// owning shard, and queries scatter-gather with per-shard deadlines,
// hedged retries, and partial-result degradation. It is a lock, the book
// it guards (fedbook.go: membership and federated submissions, journaled
// append-then-apply like the controller's, so a restart preserves routing
// and submission idempotency) and the run's I/O: the shard slots, their
// health, the clock.
type Coordinator struct {
	mu      sync.Mutex
	cfg     Config
	book    fedBook
	journal *journal.Machine[*fedBook] // nil for in-memory coordinators
	shards  map[string]*shardState     // one per book shard, by id
	tick    int64

	// The front end's state (Handler): the registry and trace ring the
	// shared router writes and serves, and its admission gate.
	reg    *obs.Registry
	traces *obs.TraceRing
	ctr    *obs.Family
	gate   *core.AdmissionGate

	scanPhases, aggPhases queryPhases
	reports               map[string]*store.ReportMemo // the last aggregate's report, by group_by (Fold)

	// Failover moves shard id to epoch, outside the lock: it prepares the
	// replacement (BootLocal's ships the shard's state to the epoch's
	// ShardDir and recovers it there), calls commit, which journals the
	// epoch, and only if that succeeds lets the replacement serve. nil
	// disables failover even when cfg.AutoFailover is set.
	Failover func(id string, epoch int, commit func() error) error
}

// New opens (or creates) a coordinator journaled at dir and replays its
// shard map and submission book. dir == "" runs in-memory (tests).
// Backends are not part of the journal: after a recovery the shards
// exist with nil backends and health dead until AddShard re-attaches
// them.
func New(dir string, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		book:   newFedBook(),
		shards: make(map[string]*shardState),
		reg:    obs.NewRegistry(),
		traces: obs.NewTraceRing(core.DefaultTraceRing),
	}
	c.ctr = c.reg.Counters("obs_fed_events_total")
	c.gate = core.NewAdmissionGate(cfg.Admission, c.reg)
	c.scanPhases, c.aggPhases = newQueryPhases(c.reg, "scan"), newQueryPhases(c.reg, "aggregate")
	c.reports = store.NewReportMemos(func(reused, finished int) {
		c.ctr.Add("fed_report_groups_reused", int64(reused))
		c.ctr.Add("fed_report_groups_finished", int64(finished))
	})
	if dir != "" {
		// The coordinator writes no snapshot: its machine refuses a
		// directory holding one (a controller's), and replays the whole
		// journal.
		jm, err := journal.OpenMachine(dir, journal.Owner[*fedBook]{State: &c.book, Ops: replayOps, Obs: c.reg})
		if err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		replayed, torn, err := jm.Rebuild(func(string) {})
		if err != nil {
			jm.Close()
			return nil, fmt.Errorf("federation: %w", err)
		}
		if torn {
			c.ctr.Inc("fed_recovery_truncated_tail")
		}
		c.ctr.Add("fed_recovery_replayed", int64(replayed))
		c.journal = jm
	}
	for _, id := range c.book.order {
		c.attachLocked(id, nil)
	}
	return c, nil
}

// Close releases the coordinator journal; a closed coordinator journals no
// more mutations, so it makes none. Shard backends are owned by the caller.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journal.Close()
}

// Observability returns the coordinator's metrics registry (the /metrics
// payload).
func (c *Coordinator) Observability() *obs.Registry { return c.reg }

// Counters snapshots the coordinator's event counters.
func (c *Coordinator) Counters() map[string]int64 { return c.ctr.Snapshot() }

// storageFault is a failed journal append, which both tiers answer 503.
func storageFault(err error) error {
	return &core.StorageFault{Err: fmt.Errorf("federation: %w", err)}
}

// attachLocked gives book shard id fresh run-scoped state over slot: dead
// while slot is nil.
func (c *Coordinator) attachLocked(id string, slot Shard) {
	st := &shardState{id: id, slot: slot, hist: c.reg.Hist("obs_fed_shard_seconds", "shard", id), health: core.ProbeDead}
	if slot != nil {
		st.health, st.lastSeen = core.ProbeAlive, c.tick
	}
	c.shards[id] = st
}

// AddShard adds a shard to the journaled map (idempotent by ID) and
// attaches its slot. Re-attaching after a coordinator restart hits the
// replayed entry and only installs the slot — no duplicate journal
// record.
func (c *Coordinator) AddShard(id string, slot Shard) error {
	if id == "" {
		return errors.New("federation: empty shard id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.shards[id]; !ok {
		op := shardAddOp{ID: id}
		if err := c.journal.Do(nil, opShardAdd, op, func() { c.book.addShard(op) }); err != nil {
			return storageFault(err)
		}
	}
	c.attachLocked(id, slot)
	return nil
}

// FailoverShard moves a shard to its next epoch through the Failover hook,
// which runs outside the lock (it ships state and replays a journal) and
// calls back to journal the epoch before the replacement serves. While one
// failover of a shard runs, another of the same shard is dropped.
func (c *Coordinator) FailoverShard(id string) error {
	c.mu.Lock()
	st, ok := c.shards[id]
	hook := c.Failover
	switch {
	case !ok:
		c.mu.Unlock()
		return fmt.Errorf("federation: unknown shard %q", id)
	case hook == nil:
		c.mu.Unlock()
		return errors.New("federation: no failover hook configured")
	case st.failing:
		c.mu.Unlock()
		c.ctr.Inc("fed_failover_races")
		return nil
	}
	st.failing = true
	op := shardFailoverOp{ID: id, Epoch: c.book.epochs[id] + 1}
	c.mu.Unlock()

	err := hook(id, op.Epoch, func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if err := c.journal.Do(nil, opShardFailover, op, func() { c.book.failover(op) }); err != nil {
			return storageFault(err)
		}
		return nil
	})

	c.mu.Lock()
	defer c.mu.Unlock()
	st.failing = false
	if err != nil {
		c.ctr.Inc("fed_failover_errors")
		return fmt.Errorf("federation: failover of %s: %w", id, err)
	}
	st.health, st.lastSeen = core.ProbeAlive, c.tick
	c.ctr.Inc("fed_failovers")
	return nil
}

// ShardStatuses reports every shard's id, epoch, and health, sorted by
// id.
func (c *Coordinator) ShardStatuses() []ShardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardStatus, 0, len(c.book.order))
	for _, id := range c.book.order {
		out = append(out, ShardStatus{ID: id, Epoch: c.book.epochs[id], Health: c.shards[id].health})
	}
	return out
}

// Tick advances the coordinator's logical clock by n: admission buckets
// refill, every live shard's own clock advances, and each shard is
// health-probed, driving the alive→suspect→dead machine. A shard that
// reaches dead is failed over when AutoFailover and the hook are set.
func (c *Coordinator) Tick(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.tick += int64(n)
	now := c.tick
	c.mu.Unlock()

	c.gate.Refill(n)

	// Advance + probe in parallel — a hung shard must not stall the other
	// shards' clocks past its own deadline — and unhedged: a hedge would
	// tick a shard twice.
	probed := scatter(c, nil, nil, false, func(b core.Backend, _ string) (core.HealthReport, error) {
		b.Tick(n)
		return b.Health()
	})

	var failover []string
	c.mu.Lock()
	for _, rp := range probed {
		st := c.shards[rp.id]
		if rp.err == nil {
			st.lastSeen = now
			if st.health != core.ProbeAlive {
				c.ctr.Inc("fed_shard_recovered")
			}
			st.health = core.ProbeAlive
			continue
		}
		silent := now - st.lastSeen
		switch {
		case silent >= c.cfg.DeadAfter:
			if st.health != core.ProbeDead {
				c.ctr.Inc("fed_shard_dead")
			}
			st.health = core.ProbeDead
			if c.cfg.AutoFailover && c.Failover != nil {
				failover = append(failover, st.id)
			}
		case silent >= c.cfg.SuspectAfter:
			if st.health == core.ProbeAlive {
				c.ctr.Inc("fed_shard_suspect")
			}
			if st.health != core.ProbeDead {
				st.health = core.ProbeSuspect
			}
		}
	}
	c.mu.Unlock()

	for _, id := range failover {
		if err := c.FailoverShard(id); err != nil {
			c.ctr.Inc("fed_autofailover_deferred")
		}
	}
}

// shardFor routes a key (a probe ID) to its owning shard.
func (c *Coordinator) shardFor(key string) (*shardState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.book.ring.owner(key)
	if id == "" {
		return nil, ErrNoShards
	}
	return c.shards[id], nil
}

// attemptResult carries one attempt's outcome through a channel —
// hedged attempts must never write captured variables.
type attemptResult[T any] struct {
	v   T
	err error
}

// scatterCallWithin runs op against one shard's backend within d,
// resolving the slot afresh for each attempt. With hedge it launches a second attempt when HedgeAfter passes with the first still
// out — and only then: an error is the shard's answer (remoteErr has
// already made an unreachable one ErrShardDown), so it is returned once no
// attempt is left in flight, never re-sent. hedge must be false for
// non-idempotent ops (a sync that asks for a lease — a hedge could
// double-lease; a tick). op calls the backend with context.Background(),
// not the request's: a trace span is single-goroutine (obs.Span), and
// every attempt and hedge runs on its own goroutine (cross-tier spans are
// ROADMAP item 6).
func scatterCallWithin[T any](c *Coordinator, st *shardState, hedge bool, d time.Duration, op func(core.Backend) (T, error)) (T, error) {
	var zero T
	if st.slot == nil {
		return zero, ErrShardDown
	}
	ch := make(chan attemptResult[T], 2)
	attempt := func() {
		tm := obs.StartTimer()
		var v T
		b, err := st.slot.Backend()
		if err == nil {
			v, err = op(b)
		}
		st.hist.Observe(tm.Elapsed())
		ch <- attemptResult[T]{v, err}
	}
	go attempt()

	var hedgeC <-chan time.Time
	if hedge && c.cfg.HedgeAfter > 0 {
		ht := time.NewTimer(c.cfg.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}
	dl := time.NewTimer(d)
	defer dl.Stop()

	inflight := 1
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				return r.v, nil
			}
			c.ctr.Inc("fed_shard_errors")
			if inflight == 0 {
				return zero, r.err
			}
		case <-hedgeC:
			hedgeC = nil
			inflight++
			c.ctr.Inc("fed_hedges")
			go attempt()
		case <-dl.C:
			// Leaked attempts finish into the buffered channel.
			c.ctr.Inc("fed_shard_timeouts")
			return zero, ErrShardTimeout
		}
	}
}

// scatterCall is scatterCallWithin the per-shard deadline, QueryDeadline.
func scatterCall[T any](c *Coordinator, st *shardState, hedge bool, op func(core.Backend) (T, error)) (T, error) {
	return scatterCallWithin(c, st, hedge, c.cfg.QueryDeadline, op)
}

// Register routes a probe registration to its owning shard.
func (c *Coordinator) Register(_ context.Context, p core.ProbeInfo) error {
	t, err := c.shardFor(p.ID)
	if err != nil {
		return err
	}
	_, err = scatterCall(c, t, true, func(b core.Backend) (struct{}, error) {
		return struct{}{}, b.Register(context.Background(), p)
	})
	return err
}

// Sync routes a probe round (heartbeat + results + lease ask) to the
// probe's owning shard. The hedging rule is read from the request: a
// round that asks for no lease (Max < 0) is idempotent — contact is
// contact, and the shard dedups results by (experiment, task) — and may
// be hedged; one that asks for a lease never is, because two racing
// attempts would both consume leases. A shard-layer failure means the
// batch was (as far as we know) not durably accepted, so the caller must
// keep it spooled: the front end answers 503 + Retry-After and the
// probe's spool, which acks only on success, keeps the batch. wait is not
// forwarded: parking belongs to the queue-owning shard, and the per-shard
// deadline (QueryDeadline, ~2s) would cut a 30s park short — so a
// coordinator answers immediately and the probe's wait loop becomes a
// paced retry.
func (c *Coordinator) Sync(_ context.Context, req core.SyncRequest, _ time.Duration) (core.SyncResponse, error) {
	t, err := c.shardFor(req.ProbeID)
	if err != nil {
		return core.SyncResponse{}, err
	}
	return scatterCall(c, t, req.Max < 0, func(b core.Backend) (core.SyncResponse, error) {
		return b.Sync(context.Background(), req, 0)
	})
}

// Submit partitions an experiment's assignments by probe owner and
// creates the same federated experiment id on every owning shard. The
// (requestID → fedID) binding is journaled before any shard sees the
// push, so a coordinator crash cannot mint two ids for one client
// retry; the per-shard push is idempotent (per-shard request ids), so a
// retry after a partial failure re-pushes only what is missing. req.ID is
// ignored: a federated id is minted here.
func (c *Coordinator) Submit(_ context.Context, req core.SubmitRequest) (*core.Experiment, error) {
	if len(req.Assignments) == 0 {
		return nil, core.ErrNoAssignments
	}
	c.mu.Lock()
	if len(c.book.order) == 0 {
		c.mu.Unlock()
		return nil, ErrNoShards
	}
	var fedID string
	var replay bool
	if req.RequestID != "" {
		fedID, replay = c.book.submitIDs[req.RequestID]
	}
	if !replay {
		fedID = fmt.Sprintf("fexp-%04d", len(c.book.fedExps)+1)
	}
	// Fill empty task ids centrally, by position in the federated
	// submission: letting each shard auto-mint would collide across
	// shards (every shard would mint fedID-t0000), corrupting the
	// global (experiment, task) dedup identity. A client retry carries
	// the same assignments in the same order, so the fill is stable.
	filled := append([]probes.Assignment(nil), req.Assignments...)
	for i := range filled {
		if filled[i].Task.ID == "" {
			filled[i].Task.ID = core.TaskID(fedID, i)
		}
	}
	// Partition by assignment index: routing is pure ring math over the
	// probe id. A task id the caller pinned twice, for probes of two
	// shards, is refused: each shard would record its own result under one
	// (experiment, task) key, and aggregates count a key once per shard
	// that holds it (DESIGN.md "Scatter-gather queries").
	partIdx := make(map[string][]int)
	home := make(map[string]string, len(filled))
	for i, a := range filled {
		id := c.book.ring.owner(a.ProbeID)
		if other, ok := home[a.Task.ID]; ok && other != id {
			c.mu.Unlock()
			return nil, fmt.Errorf("federation: task id %s is assigned to probes of two shards (%s and %s)", a.Task.ID, other, id)
		}
		home[a.Task.ID] = id
		partIdx[id] = append(partIdx[id], i)
	}
	owners := make([]string, 0, len(partIdx))
	for id := range partIdx {
		owners = append(owners, id)
	}
	sort.Strings(owners)

	if !replay {
		op := fedSubmitOp{
			FedID:       fedID,
			RequestID:   req.RequestID,
			Owner:       req.Owner,
			Description: req.Description,
			Shards:      owners,
		}
		if err := c.journal.Do(nil, opFedSubmit, op, func() { c.book.submit(op) }); err != nil {
			c.mu.Unlock()
			return nil, storageFault(err)
		}
		c.ctr.Inc("fed_submits")
	} else {
		c.ctr.Inc("fed_submit_dedup")
	}
	targets := c.targetsLocked(owners)
	c.mu.Unlock()

	// Push partitions in deterministic order. Hedging is safe: the
	// per-shard request id makes redelivery a dedup hit.
	subs := make([]*core.Experiment, 0, len(owners))
	for i, id := range owners {
		part := core.SubmitRequest{RequestID: "fed:" + fedID + ":" + id, ID: fedID, Owner: req.Owner, Description: req.Description}
		for _, j := range partIdx[id] {
			part.Assignments = append(part.Assignments, filled[j])
		}
		sub, err := scatterCall(c, targets[i], true, func(b core.Backend) (*core.Experiment, error) {
			return b.Submit(context.Background(), part)
		})
		if err != nil {
			return nil, fmt.Errorf("federation: pushing %s to shard %s: %w", fedID, id, err)
		}
		subs = append(subs, sub)
	}
	return mergeExperiments(fedID, req.Owner, req.Description, subs), nil
}

// Approve fans an experiment approval out to every owning shard.
func (c *Coordinator) Approve(_ context.Context, fedID string) error {
	return c.vet(fedID, "approving", core.Backend.Approve)
}

// Reject fans an experiment rejection out to every owning shard.
func (c *Coordinator) Reject(_ context.Context, fedID string) error {
	return c.vet(fedID, "rejecting", core.Backend.Reject)
}

// vet makes one vetting call, decide, on every shard owning a partition
// of the experiment, in turn, and stops at the first that fails: a shard's
// refusal as the shard gave it (both tiers answer alike), an outage named.
func (c *Coordinator) vet(fedID, doing string, decide func(core.Backend, context.Context, string) error) error {
	fed, targets, err := c.experimentTargets(fedID)
	if err != nil {
		return err
	}
	for i, t := range targets {
		_, err := scatterCall(c, t, true, func(b core.Backend) (struct{}, error) {
			return struct{}{}, decide(b, context.Background(), fedID)
		})
		if errors.Is(err, ErrShardDown) || errors.Is(err, ErrShardTimeout) {
			return fmt.Errorf("federation: %s %s on shard %s: %w", doing, fedID, fed.Shards[i], err)
		} else if err != nil {
			return err
		}
	}
	return nil
}

// Experiment gathers a federated experiment's partitions from its
// owning shards and merges them. A shard that lost the push (crash
// between journal and push, before any client retry) answers
// ErrUnknownExperiment and contributes nothing; a shard that cannot
// answer fails the read — experiment state must never be silently
// partial, unlike result queries.
func (c *Coordinator) Experiment(fedID string) (*core.Experiment, error) {
	fed, targets, err := c.experimentTargets(fedID)
	if err != nil {
		return nil, err
	}
	subs := make([]*core.Experiment, 0, len(targets))
	for i, t := range targets {
		sub, err := scatterCall(c, t, true, func(b core.Backend) (*core.Experiment, error) {
			sub, err := b.Experiment(fedID)
			if errors.Is(err, core.ErrUnknownExperiment) {
				return nil, nil // an answer, not a shard error
			}
			return sub, err
		})
		if err != nil {
			return nil, fmt.Errorf("federation: reading %s from shard %s: %w", fedID, fed.Shards[i], err)
		}
		if sub != nil {
			subs = append(subs, sub)
		}
	}
	return mergeExperiments(fedID, fed.Owner, "", subs), nil
}

func (c *Coordinator) experimentTargets(fedID string) (*fedExperiment, []*shardState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fed, ok := c.book.fedExps[fedID]
	if !ok {
		return nil, nil, fmt.Errorf("%w %s", core.ErrUnknownExperiment, fedID)
	}
	return fed, c.targetsLocked(fed.Shards), nil
}

// targetsLocked is the state of each shard of ids, in order: a book
// shard's always exists.
func (c *Coordinator) targetsLocked(ids []string) []*shardState {
	out := make([]*shardState, len(ids))
	for i, id := range ids {
		out[i] = c.shards[id]
	}
	return out
}

// mergeExperiments folds per-shard sub-experiments into the federated
// view: assignments concatenated in shard order, status pending if any
// partition is pending, rejected if any is rejected, else approved.
func mergeExperiments(fedID, owner, description string, subs []*core.Experiment) *core.Experiment {
	out := &core.Experiment{ID: fedID, Owner: owner, Description: description, Status: core.StatusApproved}
	anyPending, anyRejected := false, false
	for _, sub := range subs {
		if sub == nil {
			continue
		}
		if out.Description == "" {
			out.Description = sub.Description
		}
		out.Assignments = append(out.Assignments, sub.Assignments...)
		switch sub.Status {
		case core.StatusPending:
			anyPending = true
		case core.StatusRejected:
			anyRejected = true
		}
	}
	switch {
	case anyRejected:
		out.Status = core.StatusRejected
	case anyPending:
		out.Status = core.StatusPending
	}
	return out
}

// Health aggregates every responsive shard's health report, asking them
// all at once. Status is "degraded" when any shard is unresponsive or
// degraded.
func (c *Coordinator) Health() (core.HealthReport, error) {
	out := core.HealthReport{Status: "ok", Tick: c.now()}
	for _, rp := range scatter(c, nil, nil, true, func(b core.Backend, _ string) (core.HealthReport, error) {
		return b.Health()
	}) {
		if rp.err != nil {
			out.Status = "degraded"
			continue
		}
		if rp.v.Status != "ok" {
			out.Status = "degraded"
		}
		out.ProbesAlive += rp.v.ProbesAlive
		out.ProbesSuspect += rp.v.ProbesSuspect
		out.ProbesDead += rp.v.ProbesDead
		out.QueuedTasks += rp.v.QueuedTasks
		out.OutstandingLeases += rp.v.OutstandingLeases
	}
	return out, nil
}

// FedStats is the coordinator's /api/v1/stats payload: its own event
// and admission counters plus each responsive shard's report.
type FedStats struct {
	Tick        int64            `json:"tick"`
	Coordinator map[string]int64 `json:"coordinator"`
	Admission   map[string]int64 `json:"admission,omitempty"`
	Shards      map[string]any   `json:"shards"`
	ShardsDown  []string         `json:"shards_down,omitempty"`
}

// Stats gathers every shard's stats at once (a FedStats); unresponsive
// shards are listed in ShardsDown rather than failing the read.
func (c *Coordinator) Stats() (any, error) {
	out := FedStats{
		Tick:        c.now(),
		Coordinator: c.ctr.Snapshot(),
		Admission:   c.gate.Snapshot(),
		Shards:      make(map[string]any),
	}
	for _, rp := range scatter(c, nil, nil, true, func(b core.Backend, _ string) (any, error) {
		return b.Stats()
	}) {
		if rp.err != nil {
			out.ShardsDown = append(out.ShardsDown, rp.id)
			continue
		}
		out.Shards[rp.id] = rp.v
	}
	return out, nil
}

func (c *Coordinator) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tick
}
