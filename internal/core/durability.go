package core

import (
	"cmp"
	"fmt"
	"path/filepath"
	"sort"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// The controller journals operations, not state deltas: every mutating
// entry point appends one of these records (with its validated inputs)
// before acknowledging, and recovery replays them through the same
// apply functions of the book (book.go) the live path uses. Book logic is
// deterministic given operation order — logical ticks, sorted sweeps,
// seeded everything — so snapshot + replay reconstructs the exact
// pre-crash state.
const (
	opRegister   = "probe_register"
	opSubmitCols = "experiment_submit_cols"
	opApprove    = "experiment_approve"
	opReject     = "experiment_reject"
	opSync       = "probe_sync"
	opTick       = "tick"
	// opRequeue is recovery's own mutation: the results a crash took with
	// the store's memtable, un-recorded and requeued (Recover appends it).
	opRequeue = "recovery_requeue"

	// Retired kinds: journals from before submissions were columns and
	// every probe call a sync hold them; Recover refuses them and
	// nothing writes them (the root lint_test.go).
	opSubmit    = "experiment_submit"
	opHeartbeat = "heartbeat"
	opLease     = "lease_grant"
	opResults   = "results_accept"
)

// submitOp is a submission as applySubmit takes it.
type submitOp struct {
	RequestID   string              `json:"request_id,omitempty"`
	Owner       string              `json:"owner"`
	Description string              `json:"description"`
	Assignments []probes.Assignment `json:"assignments"`
	// ExpID pins the experiment id instead of minting exp-%04d. The
	// federation coordinator uses it to create the same federated
	// experiment id on every shard that owns a slice of the
	// assignments. Empty keeps the minting path.
	ExpID string `json:"exp_id,omitempty"`
}

type expOp struct {
	ExpID string `json:"exp_id"`
}

// resultRef is the journaled bookkeeping for one submitted result: just
// enough to replay dedup and lease clearing. The payload itself lives
// in the results store (internal/store), not the WAL. Every ref in a
// batch is journaled — including ones that dedup as duplicates — so
// replay reproduces the live run's counters exactly.
type resultRef struct {
	Experiment string `json:"exp"`
	TaskID     string `json:"task"`
}

// syncOp is one batched probe round-trip: heartbeat + accepted result
// refs + a lease ask, journaled as a single record so one append and
// one fsync cover the whole batch. Max is the resolved lease cap (the
// server default is substituted before journaling), so replay grants
// the same slice regardless of config defaults at recovery time; < 0 is
// a round with no lease. Seq is the store sequence number of the last
// payload the round stored (recordRefs), absent when it stored none
// and in records written before it was journaled.
type syncOp struct {
	ProbeID string      `json:"probe_id"`
	Refs    []resultRef `json:"refs,omitempty"`
	Seq     uint64      `json:"seq,omitempty"`
	Max     int         `json:"max"`
}

// requeueOp is opRequeue's record.
type requeueOp struct {
	Refs []resultRef `json:"refs"`
}

// unsealedRef is a recorded ref and the store sequence number of its
// payload.
type unsealedRef struct {
	resultRef
	Seq uint64 `json:"seq"`
}

type tickOp struct {
	N int `json:"n"`
}

// persistScalars is the part of the book that is a few numbers and small
// maps: a framed snapshot's head carries it whole.
type persistScalars struct {
	Now       int64            `json:"now"`
	NextExpID int              `json:"next_exp_id"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	Trusted   []string         `json:"trusted,omitempty"`
	// Served-grant tallies feed the bias-aware scheduler (scheduler.go).
	// They are part of apply-path state — grants update them inside the
	// journaled apply — so snapshots must carry them for replay
	// equivalence. The omitempty tags only keep the bytes as they are:
	// a snapshot without the tallies predates the layout and is refused.
	ServedTotal   int64            `json:"served_total,omitempty"`
	ServedCountry map[string]int64 `json:"served_country,omitempty"`
	ServedASN     map[string]int64 `json:"served_asn,omitempty"`
}

// persistProbe and persistLease are a probeState and a leaseRec in a frame.
type persistProbe struct {
	Info     ProbeInfo   `json:"info"`
	LastSeen int64       `json:"last_seen"`
	Health   ProbeHealth `json:"health"`
}

type persistLease struct {
	Task     probes.Task `json:"task"`
	ProbeID  string      `json:"probe_id"`
	Deadline int64       `json:"deadline"`
}

// DurabilityConfig parameterizes Recover. Zero-valued tick knobs keep
// the NewController defaults.
type DurabilityConfig struct {
	// Trusted is the auto-approve cohort (unioned with any cohort the
	// snapshot recorded).
	Trusted []string
	// LeaseTTL / SuspectAfter / DeadAfter override the controller's
	// tick knobs when > 0.
	LeaseTTL     int64
	SuspectAfter int64
	DeadAfter    int64
	// SnapshotEvery takes an automatic compacted snapshot after that
	// many journal records. 0 disables automatic snapshots (explicit
	// Snapshot/Close still work).
	SnapshotEvery int
	// StoreDir is where the results store keeps its segments. Empty
	// defaults to <dir>/store.
	StoreDir string
	// StoreFlushEvery / StoreTargetFrames override the results store's
	// memtable flush threshold and compaction target when > 0.
	StoreFlushEvery   int
	StoreTargetFrames int
	// Retention drops stored results older than this many ticks during
	// compaction sweeps. 0 keeps everything.
	Retention int64
}

// ErrNeedsUpgrade is Recover's refusal of a directory an older binary
// wrote — a one-blob snapshot, a snapshot head without a layout, a record
// of a retired kind, a result record that does not say where its payloads
// sit — before it has appended or snapshotted anything.
var ErrNeedsUpgrade = journal.ErrNeedsUpgrade

// Recover rebuilds a controller from a journal directory through a
// journal.Machine — latest snapshot plus replay of every journaled
// operation after it; a torn tail, never acknowledged, is cut and counted
// — and keeps the machine as the controller's write path. An empty or
// missing directory yields a fresh controller, so Recover is also the way
// to start a durable deployment, and dir == "" one kept in memory. Recover
// reads the one directory shape this binary writes; any older one is an
// error wrapping ErrNeedsUpgrade.
//
// Recover also reopens the results store (StoreDir, default
// <dir>/store) and reconciles the replayed dedup book against it: a
// result whose ref was journaled but whose payload died with the
// memtable is un-recorded and its task requeued to the original
// assignee, so a crash loses at most the unflushed memtable and the
// pipeline re-runs exactly those tasks. That mutation is journaled like
// any other — one opRequeue record — so a later replay passes through
// it; recovery_results_requeued counts this run's.
//
// Each phase is timed into obs_recover_seconds{phase=journal_open|
// store_open|snapshot|decode|replay|reconcile} on the controller's
// registry — journal_open reads both files, checks their frames and
// decodes the journal's records, store_open opens the results store,
// snapshot decodes the snapshot's frames into the book,
// decode turns the tail past the snapshot into typed ops (all three
// decodes on every core), replay applies them in journal order.
func Recover(dir string, cfg DurabilityConfig) (*Controller, error) {
	t := obs.StartTimer()
	// The controller is built first so the journal and the disk-backed
	// store can share its metric registry (the in-memory store
	// NewController installed is simply replaced).
	c := NewController(cfg.Trusted...)
	if cfg.LeaseTTL > 0 {
		c.LeaseTTL = cfg.LeaseTTL
	}
	if cfg.SuspectAfter > 0 {
		c.SuspectAfter = cfg.SuspectAfter
	}
	if cfg.DeadAfter > 0 {
		c.DeadAfter = cfg.DeadAfter
	}
	if dir == "" {
		return c, nil
	}
	jm, err := journal.OpenMachine(dir, journal.Owner[*Controller]{
		State: c,
		Ops:   replayOps,
		Decode: func(snap *journal.Snapshot) error {
			reflected, err := decodeSnapshot(snap, &c.book)
			if reflected > 0 {
				c.dur.Add("recovery_reflect_decodes", int64(reflected))
			}
			return err
		},
		Encode: func() (any, [][]byte, error) {
			c.pruneUnsealed(c.store.SealedSeq())
			head, frames, err := c.snapshotFrames()
			return head, frames, err
		},
		Every: cfg.SnapshotEvery,
		Obs:   c.reg,
	})
	if err != nil {
		return nil, err
	}
	if err := jm.CheckKinds(); err != nil {
		jm.Close()
		return nil, fmt.Errorf("core: %w", err)
	}
	phase := func(name string) {
		c.reg.Hist(MetricRecover, "phase", name).Observe(t.Elapsed())
		t = obs.StartTimer()
	}
	phase("journal_open")
	storeDir := cfg.StoreDir
	if storeDir == "" {
		storeDir = filepath.Join(dir, "store")
	}
	st, err := store.Open(storeDir, store.Options{
		FlushEvery:   cfg.StoreFlushEvery,
		TargetFrames: cfg.StoreTargetFrames,
		Retention:    cfg.Retention,
		Obs:          c.reg,
	})
	if err != nil {
		jm.Close()
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
	phase("store_open")
	fail := func(err error) (*Controller, error) {
		jm.Close()
		st.Close()
		return nil, err
	}
	if _, _, err := jm.Rebuild(phase); err != nil {
		return fail(fmt.Errorf("core: %w", err))
	}
	c.journal = jm
	if err := c.requeueLostLocked(); err != nil {
		return fail(err)
	}
	phase("reconcile")
	return c, nil
}

// requeueLostLocked is the last step of a recovery: find the recorded refs
// whose payload the reopened store does not hold and journal + apply one
// opRequeue for them, in (experiment, task) order. Nothing is changed
// before the append succeeds, so a crash anywhere in here leaves the
// directory for the next recovery to find the same set.
func (c *Controller) requeueLostLocked() error {
	lost, err := c.lostResultsLocked()
	if err != nil || len(lost) == 0 {
		return err
	}
	sort.Slice(lost, func(i, j int) bool {
		if lost[i].Experiment != lost[j].Experiment {
			return lost[i].Experiment < lost[j].Experiment
		}
		return lost[i].TaskID < lost[j].TaskID
	})
	if err := c.mutateLocked(opRequeue, requeueOp{Refs: lost}, func() { c.applyRequeue(lost) }); err != nil {
		return err
	}
	c.dur.Add("recovery_results_requeued", int64(len(lost)))
	return nil
}

// lostResultsLocked squares the replayed dedup book against the reopened
// store, whose memtable is empty: a ref journaled in the crash window may
// point at a payload that only ever lived in the memtable, and treating
// it as recorded would silently drop that measurement. The lost refs are
// the unsealed entries above the store's sealed watermark — no segment
// is read. A book that does not place its refs (a result-bearing record
// without seq, which an older binary wrote) is refused.
func (c *Controller) lostResultsLocked() ([]resultRef, error) {
	if c.unsealedUnknown {
		return nil, fmt.Errorf("core: a result record does not say where its payloads sit: %w", ErrNeedsUpgrade)
	}
	var lost []resultRef
	sealed := c.store.SealedSeq()
	for _, u := range c.unsealed {
		if u.Seq > sealed {
			lost = append(lost, u.resultRef)
		}
	}
	return lost, nil
}

// replayOps is every journal record kind this controller can replay:
// the typed op its data decodes into and the book's apply function the
// live mutation used, given what it reads of the store. Recover's
// journal.Machine decodes a whole tail through it before applying
// anything, which is also where a kind without an entry is reported.
var replayOps = map[string]journal.Op[*Controller]{
	opRegister:   journal.CutOpOf(cutProbeInfo, (*Controller).applyRegister, reflectDecoded),
	opSubmitCols: decodeSubmitCols,
	opApprove:    journal.OpOf(func(c *Controller, op expOp) { c.applyApprove(op.ExpID) }),
	opReject:     journal.OpOf(func(c *Controller, op expOp) { c.applyReject(op.ExpID) }),
	opSync:       journal.CutOpOf(cutSyncOp, func(c *Controller, op syncOp) { c.applySync(op, c.store.SealedSeq()) }, reflectDecoded),
	opTick:       journal.OpOf(func(c *Controller, op tickOp) { c.applyTick(op.N) }),
	opRequeue:    journal.OpOf(func(c *Controller, op requeueOp) { c.applyRequeue(op.Refs) }),
	// A retired kind, which only an older binary wrote, is refused.
	opSubmit:    retired,
	opHeartbeat: retired,
	opLease:     retired,
	opResults:   retired,
}

func retired([]byte) (func(*Controller), error) { return nil, ErrNeedsUpgrade }

// reflectDecoded counts a tail record whose data its cut declined and
// json.Unmarshal read (cut.go): this binary's journals take none.
func reflectDecoded(c *Controller) { c.dur.Inc("recovery_reflect_decodes") }

// mutateLocked is the write path every mutating entry point goes
// through: the journal's Do, under a mutator:<kind> span and its
// obs_mutator_seconds series. A failed append aborts the operation as a
// StorageFault; without a journal (in-memory controller) only the apply
// runs.
func (c *Controller) mutateLocked(kind string, v any, apply func()) error {
	sp := c.span.Child("mutator:" + kind)
	t := obs.StartTimer()
	defer func() {
		sp.End()
		c.mutHist[kind].Observe(t.Elapsed())
	}()
	defer c.setSpanLocked(sp)()
	if err := c.journal.Do(sp, kind, v, apply); err != nil {
		return &StorageFault{fmt.Errorf("core: journal append: %w", err)}
	}
	return nil
}

// Snapshot durably captures full controller state and compacts the
// journal. No-op without an attached journal.
func (c *Controller) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journal.Snapshot(c.span)
}

// Close flushes the results store, takes a final snapshot, and closes
// the journal; part of obsd's graceful shutdown. A closed durable
// controller answers every mutation with a StorageFault: its journal
// takes no more. Safe on in-memory controllers.
func (c *Controller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	storeErr := c.store.Close()
	snapErr := c.journal.Snapshot(c.span)
	return cmp.Or(storeErr, snapErr, c.journal.Close())
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func toSet(ids []string) map[string]bool {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// DurabilityCounters snapshots the journal-layer counters
// (journal_records_appended, journal_log_grows, snapshots_written,
// recovery_replayed, recovery_truncated_tail, ...) and the two
// obs_durability_gauge readings the journal keeps, snapshot_bytes and
// snapshot_frames. Unlike the pipeline counters these are scoped to the
// current process run — they are not journaled, so replay does not
// reconstruct them.
func (c *Controller) DurabilityCounters() map[string]int64 {
	return obs.Union(c.dur, c.durGauge)
}
