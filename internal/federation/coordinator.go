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

// Journaled coordinator mutations. Shard membership and federated
// submissions are the coordinator's durable truth — a restarted
// coordinator must re-route the same keys to the same shard IDs and
// dedup retried submissions — while shard *health* is run-scoped
// observation, rebuilt by probing, and deliberately not journaled.
const (
	opShardAdd      = "shard_add"
	opShardFailover = "shard_failover"
	opFedSubmit     = "fed_submit"
)

// replayOps is every journal record kind a coordinator can replay: the
// op its data decodes into and the apply function the live mutation
// used. A replayed failover has no backend to attach.
var replayOps = map[string]journal.Op[*Coordinator]{
	opShardAdd:      journal.OpOf((*Coordinator).applyShardAddLocked),
	opShardFailover: journal.OpOf(func(c *Coordinator, op shardFailoverOp) { c.applyShardFailoverLocked(op, nil) }),
	opFedSubmit:     journal.OpOf((*Coordinator).applyFedSubmitLocked),
}

type shardAddOp struct {
	ID string `json:"id"`
}

type shardFailoverOp struct {
	ID    string `json:"id"`
	Epoch int    `json:"epoch"`
}

type fedSubmitOp struct {
	FedID       string   `json:"fed_id"`
	RequestID   string   `json:"request_id"`
	Owner       string   `json:"owner"`
	Description string   `json:"description"`
	Shards      []string `json:"shards"`
}

// fedExperiment is the coordinator's book on one federated experiment:
// which shards hold its partitions.
type fedExperiment struct {
	ID     string
	Owner  string
	Shards []string
}

// shardState is the coordinator's book on one shard.
type shardState struct {
	id     string
	epoch  int
	slot   Shard // nil until attached (recovered coordinator)
	health core.ProbeHealth
	// lastSeen is the coordinator tick of the last successful health
	// probe (or attach), driving the alive→suspect→dead machine.
	lastSeen int64
	hist     *obs.Histogram
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
// hedged retries, and partial-result degradation. Membership and
// federated submissions are journaled (append-then-apply, like the
// controller) so a coordinator restart preserves routing and submission
// idempotency.
type Coordinator struct {
	mu        sync.Mutex
	cfg       Config
	shards    map[string]*shardState
	order     []string // sorted shard IDs — the deterministic fan-out order
	ring      *ring
	submitIDs map[string]string // client requestID → federated experiment id
	fedExps   map[string]*fedExperiment
	nextFedID int
	tick      int64
	journal   *journal.Machine[*Coordinator] // nil for in-memory coordinators

	// The front end's state (Handler): the registry and trace ring the
	// shared router writes and serves, and its admission gate.
	reg    *obs.Registry
	traces *obs.TraceRing
	ctr    *obs.Family
	gate   *core.AdmissionGate

	scanPhases, aggPhases queryPhases

	// Failover builds a dead shard's replacement to serve as epoch,
	// outside the lock (BootLocal's ships its state to the epoch's
	// ShardDir and recovers it there); nil disables failover even when
	// cfg.AutoFailover is set.
	Failover func(id string, epoch int) (Shard, error)
}

// New opens (or creates) a coordinator journaled at dir and replays its
// shard map and submission book. dir == "" runs in-memory (tests).
// Backends are not part of the journal: after a recovery the shards
// exist with nil backends and health dead until AddShard re-attaches
// them.
func New(dir string, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		shards:    make(map[string]*shardState),
		ring:      newRing(nil),
		submitIDs: make(map[string]string),
		fedExps:   make(map[string]*fedExperiment),
		reg:       obs.NewRegistry(),
		traces:    obs.NewTraceRing(core.DefaultTraceRing),
	}
	c.ctr = c.reg.Counters("obs_fed_events_total")
	c.gate = core.NewAdmissionGate(cfg.Admission, c.reg)
	c.scanPhases, c.aggPhases = newQueryPhases(c.reg, "scan"), newQueryPhases(c.reg, "aggregate")
	if dir == "" {
		return c, nil
	}
	// The coordinator writes no snapshot: its machine refuses a directory
	// holding one (a controller's), and replays the whole journal.
	jm, err := journal.OpenMachine(dir, journal.Owner[*Coordinator]{State: c, Ops: replayOps, Obs: c.reg})
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
	return c, nil
}

// Close releases the coordinator journal. Shard backends are owned by
// the caller.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.journal.Close()
	c.journal = nil
	return err
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

func (c *Coordinator) applyShardAddLocked(op shardAddOp) {
	if _, ok := c.shards[op.ID]; ok {
		return
	}
	c.shards[op.ID] = &shardState{
		id:     op.ID,
		health: core.ProbeDead, // dead until a backend attaches
		hist:   c.reg.Hist("obs_fed_shard_seconds", "shard", op.ID),
	}
	c.order = append(c.order, op.ID)
	sort.Strings(c.order)
	c.ring = newRing(c.order)
}

func (c *Coordinator) applyShardFailoverLocked(op shardFailoverOp, replacement Shard) {
	st, ok := c.shards[op.ID]
	if !ok {
		// A failover record for a shard the snapshot-less journal never
		// added cannot happen (failover journals after add); tolerate it
		// by materializing the shard.
		c.applyShardAddLocked(shardAddOp{ID: op.ID})
		st = c.shards[op.ID]
	}
	st.epoch = op.Epoch
	st.slot = replacement
	if replacement != nil {
		st.health = core.ProbeAlive
		st.lastSeen = c.tick
	} else {
		st.health = core.ProbeDead
	}
}

func (c *Coordinator) applyFedSubmitLocked(op fedSubmitOp) {
	if _, ok := c.fedExps[op.FedID]; !ok {
		c.fedExps[op.FedID] = &fedExperiment{ID: op.FedID, Owner: op.Owner, Shards: op.Shards}
	}
	if op.RequestID != "" {
		c.submitIDs[op.RequestID] = op.FedID
	}
	var n int
	if _, err := fmt.Sscanf(op.FedID, "fexp-%04d", &n); err == nil && n > c.nextFedID {
		c.nextFedID = n
	}
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
		if err := c.journal.Do(nil, opShardAdd, op, func() { c.applyShardAddLocked(op) }); err != nil {
			return storageFault(err)
		}
	}
	st := c.shards[id]
	st.slot = slot
	if slot != nil {
		st.health = core.ProbeAlive
		st.lastSeen = c.tick
	}
	return nil
}

// FailoverShard replaces a shard's backend through the Failover hook,
// bumping its journaled epoch. The hook runs outside the lock (it ships
// state and replays a journal); the swap is journaled before it is
// applied, like every other mutation.
func (c *Coordinator) FailoverShard(id string) error {
	c.mu.Lock()
	st, ok := c.shards[id]
	hook := c.Failover
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("federation: unknown shard %q", id)
	}
	if hook == nil {
		c.mu.Unlock()
		return errors.New("federation: no failover hook configured")
	}
	epoch := st.epoch + 1
	c.mu.Unlock()

	replacement, err := hook(id, epoch)
	if err != nil {
		c.ctr.Inc("fed_failover_errors")
		return fmt.Errorf("federation: failover of %s: %w", id, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.shards[id]; cur == nil || cur.epoch >= epoch {
		// Lost a race with a concurrent failover; drop our replacement.
		c.ctr.Inc("fed_failover_races")
		return nil
	}
	op := shardFailoverOp{ID: id, Epoch: epoch}
	if err := c.journal.Do(nil, opShardFailover, op, func() { c.applyShardFailoverLocked(op, replacement) }); err != nil {
		return storageFault(err)
	}
	c.ctr.Inc("fed_failovers")
	return nil
}

// ShardStatuses reports every shard's id, epoch, and health, sorted by
// id.
func (c *Coordinator) ShardStatuses() []ShardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardStatus, 0, len(c.order))
	for _, id := range c.order {
		st := c.shards[id]
		out = append(out, ShardStatus{ID: st.id, Epoch: st.epoch, Health: st.health})
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
func (c *Coordinator) shardFor(key string) (shardTarget, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.ring.owner(key)
	if id == "" {
		return shardTarget{}, ErrNoShards
	}
	st := c.shards[id]
	return shardTarget{st, st.slot}, nil
}

// shardTarget is one shard's book and the slot it held when the call
// began (failover swaps st.slot under c.mu).
type shardTarget struct {
	st   *shardState
	slot Shard
}

// attemptResult carries one attempt's outcome through a channel —
// hedged attempts must never write captured variables.
type attemptResult[T any] struct {
	v   T
	err error
}

// scatterCall runs op against one shard's backend under the per-shard
// deadline, resolving the slot afresh for each attempt. With hedge it
// launches a second attempt when HedgeAfter passes with the first still
// out — and only then: an error is the shard's answer (remoteErr has
// already made an unreachable one ErrShardDown), so it is returned once no
// attempt is left in flight, never re-sent. hedge must be false for
// non-idempotent ops (a sync that asks for a lease — a hedge could
// double-lease; a tick). op calls the backend with context.Background(),
// not the request's: a trace span is single-goroutine (obs.Span), and
// every attempt and hedge runs on its own goroutine (cross-tier spans are
// ROADMAP item 6).
func scatterCall[T any](c *Coordinator, t shardTarget, hedge bool, op func(core.Backend) (T, error)) (T, error) {
	var zero T
	if t.slot == nil {
		return zero, ErrShardDown
	}
	ch := make(chan attemptResult[T], 2)
	attempt := func() {
		tm := obs.StartTimer()
		var v T
		b, err := t.slot.Backend()
		if err == nil {
			v, err = op(b)
		}
		t.st.hist.Observe(tm.Elapsed())
		ch <- attemptResult[T]{v, err}
	}
	go attempt()

	var hedgeC <-chan time.Time
	if hedge && c.cfg.HedgeAfter > 0 {
		ht := time.NewTimer(c.cfg.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}
	dl := time.NewTimer(c.cfg.QueryDeadline)
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
	if len(c.order) == 0 {
		c.mu.Unlock()
		return nil, ErrNoShards
	}
	var fedID string
	var replay bool
	if req.RequestID != "" {
		fedID, replay = c.submitIDs[req.RequestID]
	}
	if !replay {
		fedID = fmt.Sprintf("fexp-%04d", c.nextFedID+1)
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
		id := c.ring.owner(a.ProbeID)
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
		if err := c.journal.Do(nil, opFedSubmit, op, func() { c.applyFedSubmitLocked(op) }); err != nil {
			c.mu.Unlock()
			return nil, storageFault(err)
		}
		c.ctr.Inc("fed_submits")
	} else {
		c.ctr.Inc("fed_submit_dedup")
	}
	targets := make(map[string]shardTarget, len(owners))
	for _, id := range owners {
		targets[id] = shardTarget{c.shards[id], c.shards[id].slot}
	}
	c.mu.Unlock()

	// Push partitions in deterministic order. Hedging is safe: the
	// per-shard request id makes redelivery a dedup hit.
	subs := make([]*core.Experiment, 0, len(owners))
	for _, id := range owners {
		part := core.SubmitRequest{RequestID: "fed:" + fedID + ":" + id, ID: fedID, Owner: req.Owner, Description: req.Description}
		for _, i := range partIdx[id] {
			part.Assignments = append(part.Assignments, filled[i])
		}
		sub, err := scatterCall(c, targets[id], true, func(b core.Backend) (*core.Experiment, error) {
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

func (c *Coordinator) experimentTargets(fedID string) (*fedExperiment, []shardTarget, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fed, ok := c.fedExps[fedID]
	if !ok {
		return nil, nil, fmt.Errorf("%w %s", core.ErrUnknownExperiment, fedID)
	}
	targets := make([]shardTarget, 0, len(fed.Shards))
	for _, id := range fed.Shards {
		st := c.shards[id]
		if st == nil {
			return nil, nil, fmt.Errorf("federation: experiment %s references unknown shard %s", fedID, id)
		}
		targets = append(targets, shardTarget{st, st.slot})
	}
	return fed, targets, nil
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

// allTargets snapshots every shard's book and slot in sorted-id order.
func (c *Coordinator) allTargets() []shardTarget {
	c.mu.Lock()
	defer c.mu.Unlock()
	targets := make([]shardTarget, 0, len(c.order))
	for _, id := range c.order {
		targets = append(targets, shardTarget{c.shards[id], c.shards[id].slot})
	}
	return targets
}
