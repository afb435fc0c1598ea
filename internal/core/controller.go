// Package core is the observatory's control plane — the paper's primary
// contribution (Section 7). The controller registers probes, vets and
// schedules experiments, and collects results; probe placement is
// purpose-driven (greedy IXP set cover plus mobile-carrier coverage)
// and measurement targets are chosen to surface the components global
// platforms miss: exchange fabrics, DNS resolvers, content off-nets, and
// subsea-cable crossings.
//
// The controller speaks an HTTP/JSON protocol (see http.go) so probes
// can run as separate processes; it is equally usable in-process.
//
// # At-least-once task pipeline
//
// Probes run behind intermittent grid power and flaky metered links
// (Section 7.1), so the task pipeline assumes every RPC can be lost,
// delayed, or delivered twice:
//
//   - Every probe call is one sync round (sync.go): probe contact, an
//     optional result batch, an optional lease ask, journaled as one
//     record.
//   - A round's lease hands out tasks that expire after LeaseTTL
//     controller ticks. Time is a logical tick counter advanced by Tick
//     (cmd/obsd drives it from a wall-clock timer; tests drive it
//     directly), keeping every run deterministic.
//   - Tick reaps expired leases: a task whose lease lapsed without a
//     recorded result is requeued for redelivery.
//   - A round's results are idempotent: they are deduplicated by
//     (experiment, task) so redelivered or duplicated uploads can
//     never double-count toward Done.
//   - A probe that stays silent transitions alive → suspect → dead on
//     the tick clock, and a dead probe's queue is reassigned to an alive
//     peer in the same ASN (failing that, the same country) when one
//     exists.
//
// Pipeline events are counted in the controller's obs registry, exposed
// via Stats, the /api/v1/stats endpoint and /metrics.
//
// # Durability
//
// With a data directory the controller is crash-safe: every mutating
// operation is appended to a checksummed write-ahead journal
// (internal/journal) and fsynced before it is applied or acknowledged,
// periodic snapshots compact the journal, and Recover rebuilds exact
// state by replaying journaled op inputs through the same apply
// functions the live path uses. See durability.go and the Durability
// section of DESIGN.md.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// ProbeInfo is a registered vantage point.
type ProbeInfo struct {
	ID       string       `json:"id"`
	ASN      topology.ASN `json:"asn"`
	Country  string       `json:"country"`
	HasWired bool         `json:"has_wired"`
	// Kind distinguishes hardware probes from proxy/VPN vantages.
	Kind string `json:"kind,omitempty"`
}

// ProbeHealth is the controller's liveness verdict for a probe.
type ProbeHealth string

const (
	ProbeAlive   ProbeHealth = "alive"
	ProbeSuspect ProbeHealth = "suspect"
	ProbeDead    ProbeHealth = "dead"
)

// ProbeStatus is a probe's registration plus its liveness state, as
// reported by /api/v1/stats.
type ProbeStatus struct {
	ProbeInfo
	Health   ProbeHealth `json:"health"`
	LastSeen int64       `json:"last_seen_tick"`
	Queued   int         `json:"queued"`
	Leased   int         `json:"leased"`
}

// ExperimentStatus is the vetting/progress state.
type ExperimentStatus string

const (
	StatusPending  ExperimentStatus = "pending-review"
	StatusApproved ExperimentStatus = "approved"
	StatusRejected ExperimentStatus = "rejected"
)

// Experiment is a vetted batch of measurement assignments. Flexible
// measurements require review (Section 7.1): experiments from the
// trusted cohort are auto-approved; everything else waits.
type Experiment struct {
	ID          string              `json:"id"`
	Owner       string              `json:"owner"`
	Description string              `json:"description"`
	Status      ExperimentStatus    `json:"status"`
	Assignments []probes.Assignment `json:"assignments"`
}

// ErrUnknownExperiment marks an experiment id a tier never created; both
// tiers answer it 404.
var ErrUnknownExperiment = errors.New("core: unknown experiment")

// ErrNoAssignments refuses an empty submission on either tier, before
// anything is journaled.
var ErrNoAssignments = errors.New("core: experiment has no assignments")

// HealthReport is the /api/v1/health summary.
type HealthReport struct {
	Status            string `json:"status"` // "ok" or "degraded"
	Tick              int64  `json:"tick"`
	ProbesAlive       int    `json:"probes_alive"`
	ProbesSuspect     int    `json:"probes_suspect"`
	ProbesDead        int    `json:"probes_dead"`
	QueuedTasks       int    `json:"queued_tasks"`
	OutstandingLeases int    `json:"outstanding_leases"`
}

// StatsReport is the /api/v1/stats payload: pipeline counters plus
// per-probe liveness. Durability carries the journal-layer counters
// (journal_records_appended, snapshots_written, recovery_replayed,
// recovery_truncated_tail, ...; snapshot_bytes and snapshot_frames size
// the snapshot on disk, last written or recovered from) and Store the
// results-store counters (store_frames_appended, segments_flushed,
// segments_compacted, frames_expired, queries_served, ...); Admission the
// load-shedding counters (requests_shed and its breakdowns). All three
// are scoped to the current process run rather than journaled, so
// recovery equivalence is defined over everything except these fields.
type StatsReport struct {
	Tick              int64            `json:"tick"`
	Counters          map[string]int64 `json:"counters"`
	Durability        map[string]int64 `json:"durability,omitempty"`
	Store             map[string]int64 `json:"store,omitempty"`
	Admission         map[string]int64 `json:"admission,omitempty"`
	Experiments       int              `json:"experiments"`
	QueuedTasks       int              `json:"queued_tasks"`
	OutstandingLeases int              `json:"outstanding_leases"`
	Probes            []ProbeStatus    `json:"probes"`
}

// Controller is the observatory control plane: a lock, the book it
// guards (book.go: the journaled state and its apply, promoted), and the
// I/O around it, scoped to the process run, which no replay rebuilds.
//
// The lease/liveness knobs (LeaseTTL, SuspectAfter, DeadAfter) are in
// controller ticks and must be set before traffic is served.
type Controller struct {
	mu sync.Mutex
	book

	// waiters holds the long-poll parking lot (sync.go): per-probe
	// channels closed when tasks land on that probe's queue (the book's
	// wake). Request state, always empty during replay.
	waiters map[string][]chan struct{}

	// Durability (see durability.go): journal is the write path and its
	// snapshots (nil for in-memory controllers and during replay); dur and
	// durGauge are the families it counts journal-layer events and the
	// snapshot's size into, which the controller reads and adds to.
	journal  *journal.Machine[*Controller]
	dur      *obs.Family
	durGauge *obs.Family

	// Observability (see observability.go): reg holds the latency
	// histograms and the counter and gauge families served by /metrics
	// (the book's stats, dur and durGauge among them); ring retains
	// finished request traces for /api/v1/debug/traces; span is the
	// active request's span (guarded by mu — the ctx mutator variants
	// set it, mutateLocked and the journal's spans nest under it);
	// mutHist caches hot-path histogram pointers so observing a latency
	// is lock-free.
	reg     *obs.Registry
	ring    *obs.TraceRing
	span    *obs.Span
	mutHist map[string]*obs.Histogram

	// adm is the admission-control layer (see admission.go): per-route
	// token buckets plus the bounded in-flight gate, evaluated by the
	// router before each handler.
	adm *AdmissionGate

	// store holds result payloads (internal/store). The WAL keeps only
	// the dedup/lease bookkeeping for results; the payloads live here,
	// so journal replay and snapshots stay small no matter how many
	// results accumulate. In-memory controllers get a memory-backed
	// store; Recover attaches a disk-backed one.
	store *store.Store
}

// NewController creates an empty control plane with the given trusted
// experimenter cohort: an empty book at the default tick knobs, whose
// counters and wake-ups are the new controller's.
func NewController(trusted ...string) *Controller {
	c := &Controller{book: newBook(), waiters: make(map[string][]chan struct{})}
	c.wake = c.notifyWaitersLocked
	c.initObs()
	c.store = store.NewMemory(store.Options{Obs: c.reg})
	for _, t := range trusted {
		c.trusted[t] = true
	}
	return c
}

// RegisterProbe adds or updates a vantage point. Registration counts as
// probe contact.
func (c *Controller) RegisterProbe(p ProbeInfo) error {
	return c.registerProbeCtx(context.Background(), p)
}

// registerProbeCtx is RegisterProbe carrying the request span (if any)
// into the mutation for tracing.
func (c *Controller) registerProbeCtx(ctx context.Context, p ProbeInfo) error {
	if p.ID == "" {
		return fmt.Errorf("core: probe id required")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.setSpanLocked(obs.SpanFrom(ctx))()
	return c.mutateLocked(opRegister, p, func() { c.applyRegister(p) })
}

// Probes lists registered probes sorted by id.
func (c *Controller) Probes() []ProbeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProbeInfo, 0, len(c.probes))
	for _, st := range c.probes {
		out = append(out, st.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tick advances the controller's logical clock by n ticks, sweeping
// liveness and reaping expired leases after each. cmd/obsd calls it
// from a timer; tests call it directly, so runs stay deterministic.
func (c *Controller) Tick(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	// An unjournaled tick must not advance the clock; the error is
	// dropped (Tick has no error path) but counted in the durability
	// counters by the append.
	_ = c.mutateLocked(opTick, tickOp{N: n}, func() { c.applyTick(n) })
	c.mu.Unlock()
	// Token buckets ride the logical clock but outside the journaled
	// apply: admission is run-scoped, and replaying ticks at recovery
	// must not grant tokens.
	c.adm.Refill(n)
}

// Now returns the controller's current tick.
func (c *Controller) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// SubmitExperiment queues an experiment for vetting. Trusted owners are
// approved (and scheduled) immediately. A submission with a request id,
// which the controller dedups by, goes through Backend().Submit.
func (c *Controller) SubmitExperiment(owner, description string, assignments []probes.Assignment) (*Experiment, error) {
	return c.submitExperimentIdemCtx(context.Background(), "", "", owner, description, assignments)
}

// submitExperimentIdemCtx is every submission. When requestID is
// non-empty and has been seen before, the previously created experiment
// is returned instead of a new one: this is what makes the HTTP client's
// Submit retryable — a duplicated delivery cannot double the workload.
// A non-empty expID pins the experiment id instead of minting exp-%04d —
// a federation coordinator creates its federated id on every shard owning
// a slice of the assignments, so cross-shard results merge under one id.
// Resubmitting an existing id with a fresh request id is rejected; the
// idempotent path is the request id.
func (c *Controller) submitExperimentIdemCtx(ctx context.Context, requestID, expID, owner, description string, assignments []probes.Assignment) (*Experiment, error) {
	if len(assignments) == 0 {
		return nil, ErrNoAssignments
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.setSpanLocked(obs.SpanFrom(ctx))()
	if requestID != "" {
		if prevID, ok := c.submitIDs[requestID]; ok {
			c.dur.Inc("submits_deduped")
			return cloneExp(c.experiments[prevID]), nil
		}
	}
	if expID != "" {
		if _, exists := c.experiments[expID]; exists {
			return nil, fmt.Errorf("core: experiment id %s already exists", expID)
		}
	}
	op := submitOp{RequestID: requestID, Owner: owner, Description: description, Assignments: assignments, ExpID: expID}
	var exp *Experiment
	if err := c.mutateLocked(opSubmitCols, submitRecord(op), func() { exp = c.applySubmit(op) }); err != nil {
		return nil, err
	}
	return cloneExp(exp), nil
}

// TaskID is the id minted for an experiment's i-th task,
// fmt.Sprintf("%s-t%04d", expID, i), built in one sized allocation. A
// federation coordinator mints its tasks' ids with it too.
func TaskID(expID string, i int) string {
	var num [20]byte
	digits := strconv.AppendUint(num[:0], uint64(i), 10)
	infix := "-t000"[:max(2, 6-len(digits))]
	var b strings.Builder
	b.Grow(len(expID) + len(infix) + len(digits))
	b.WriteString(expID)
	b.WriteString(infix)
	b.Write(digits)
	return b.String()
}

// approve moves a pending experiment to approved and schedules its tasks.
func (c *Controller) approve(ctx context.Context, expID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.setSpanLocked(obs.SpanFrom(ctx))()
	exp, ok := c.experiments[expID]
	if !ok {
		return fmt.Errorf("%w %s", ErrUnknownExperiment, expID)
	}
	if exp.Status == StatusApproved {
		return nil
	}
	if exp.Status == StatusRejected {
		return fmt.Errorf("core: experiment %s was rejected", expID)
	}
	return c.mutateLocked(opApprove, expOp{ExpID: expID}, func() { c.applyApprove(expID) })
}

// reject marks a pending experiment rejected.
func (c *Controller) reject(ctx context.Context, expID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.setSpanLocked(obs.SpanFrom(ctx))()
	exp, ok := c.experiments[expID]
	if !ok {
		return fmt.Errorf("%w %s", ErrUnknownExperiment, expID)
	}
	if exp.Status == StatusApproved {
		return fmt.Errorf("core: experiment %s already approved", expID)
	}
	if exp.Status == StatusRejected {
		return nil // idempotent, nothing to journal
	}
	return c.mutateLocked(opReject, expOp{ExpID: expID}, func() { c.applyReject(expID) })
}

// Experiment returns a copy of the experiment's state.
func (c *Controller) Experiment(id string) (*Experiment, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	exp, ok := c.experiments[id]
	if !ok {
		return nil, false
	}
	return cloneExp(exp), true
}

func cloneExp(e *Experiment) *Experiment {
	cp := *e
	cp.Assignments = append([]probes.Assignment(nil), e.Assignments...)
	return &cp
}

// stageResultsLocked is everything a result batch from probe st needs
// before its journal record: validate the whole batch (an unknown
// experiment or task rejects it with nothing recorded), build the refs to
// journal, and append the payloads not already recorded to the results
// store (stamped with the submitting probe's country/ASN and the current
// tick). The WAL carries only (experiment, task) bookkeeping and seq, the
// store sequence number of the batch's last stored payload (0 when it
// stored none).
func (c *Controller) stageResultsLocked(st *probeState, rs []probes.Result) (refs []resultRef, seq uint64, err error) {
	for _, r := range rs {
		ids, ok := c.taskIDs[r.Experiment]
		if !ok {
			c.stats.Inc("results_rejected")
			return nil, 0, fmt.Errorf("core: unknown experiment %q in result for task %q", r.Experiment, r.TaskID)
		}
		if !ids[r.TaskID] {
			c.stats.Inc("results_rejected")
			return nil, 0, fmt.Errorf("core: unknown task %q in experiment %s", r.TaskID, r.Experiment)
		}
	}
	refs = make([]resultRef, 0, len(rs))
	var fresh []store.Record
	batch := make(map[string]bool, len(rs))
	for _, r := range rs {
		refs = append(refs, resultRef{Experiment: r.Experiment, TaskID: r.TaskID})
		key := r.Experiment + "/" + r.TaskID
		if c.recorded[r.Experiment][r.TaskID] || batch[key] {
			continue // a replayed duplicate; nothing new to store
		}
		batch[key] = true
		r.ProbeID = st.info.ID
		fresh = append(fresh, store.Record{
			Experiment: r.Experiment,
			TaskID:     r.TaskID,
			ProbeID:    st.info.ID,
			Tick:       c.now,
			Country:    st.info.Country,
			ASN:        st.info.ASN,
			Result:     r,
		})
	}
	storeSpan := c.span.Child("store.append")
	err = c.store.Append(fresh...) // assigns each record its Seq
	storeSpan.End()
	if err != nil {
		c.dur.Inc("store_append_errors")
		return nil, 0, &StorageFault{fmt.Errorf("core: results store: %w", err)}
	}
	if n := len(fresh); n > 0 {
		seq = fresh[n-1].Seq
	}
	return refs, seq, nil
}

// ResultsPage returns up to limit results of one experiment starting
// after cursor (both from a previous page; "" starts over, limit <= 0
// means everything). Cursors are store sequence positions: stable across
// flushes, compaction, and restarts.
func (c *Controller) ResultsPage(expID string, limit int, cursor string) ([]probes.Result, string, error) {
	recs, next, err := c.store.ScanPage(store.Filter{Experiment: expID}, limit, cursor)
	if err != nil {
		return nil, "", err
	}
	var out []probes.Result
	for _, r := range recs {
		out = append(out, r.Result)
	}
	return out, next, nil
}

// ScanResults pages through stored result records matching a filter.
func (c *Controller) ScanResults(f store.Filter, limit int, cursor string) ([]store.Record, string, error) {
	return c.store.ScanPage(f, limit, cursor)
}

// ScanItems is ScanResults with each record in its wire form: what
// op=scan serves, undecoded (store.Item).
func (c *Controller) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, error) {
	return c.store.ScanItems(f, limit, cursor)
}

// AggregateResults computes time-window aggregations (counts, loss
// rate, RTT percentiles) over stored results, optionally grouped by
// country and/or ASN. Served straight from the store.
func (c *Controller) AggregateResults(q store.AggQuery) (store.AggReport, error) {
	return c.store.Aggregate(q)
}

// CompactStore runs one results-store maintenance sweep: merging small
// segments and enforcing the retention policy against the controller's
// current tick. cmd/obsd calls it on a -compact-every cadence.
func (c *Controller) CompactStore() error {
	return c.store.Compact(c.Now())
}

// ResultStore exposes the underlying results store (tests and
// diagnostics).
func (c *Controller) ResultStore() *store.Store { return c.store }

// Done reports whether every one of an experiment's tasks has exactly
// one recorded result.
func (c *Controller) Done(expID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	exp, ok := c.experiments[expID]
	if !ok {
		return false
	}
	return exp.Status == StatusApproved && len(c.recorded[expID]) >= len(exp.Assignments)
}

// Stats snapshots the pipeline counters and per-probe liveness.
func (c *Controller) Stats() StatsReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := StatsReport{
		Tick:              c.now,
		Counters:          c.stats.Snapshot(),
		Experiments:       len(c.experiments),
		OutstandingLeases: len(c.leases),
	}
	if d := c.DurabilityCounters(); len(d) > 0 {
		rep.Durability = d
	}
	if sc := c.store.Counters(); len(sc) > 0 {
		rep.Store = sc
	}
	if ad := c.adm.Snapshot(); len(ad) > 0 {
		rep.Admission = ad
	}
	for _, q := range c.queues {
		rep.QueuedTasks += len(q)
	}
	leasedBy := make(map[string]int, len(c.probes))
	for _, l := range c.leases {
		leasedBy[l.probeID]++
	}
	for id, st := range c.probes {
		rep.Probes = append(rep.Probes, ProbeStatus{
			ProbeInfo: st.info,
			Health:    st.health,
			LastSeen:  st.lastSeen,
			Queued:    len(c.queues[id]),
			Leased:    leasedBy[id],
		})
	}
	sort.Slice(rep.Probes, func(i, j int) bool { return rep.Probes[i].ID < rep.Probes[j].ID })
	return rep
}

// Health summarizes fleet liveness: "ok" while no probe is dead,
// "degraded" otherwise.
func (c *Controller) Health() HealthReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := HealthReport{Status: "ok", Tick: c.now, OutstandingLeases: len(c.leases)}
	for _, st := range c.probes {
		switch st.health {
		case ProbeDead:
			rep.ProbesDead++
		case ProbeSuspect:
			rep.ProbesSuspect++
		default:
			rep.ProbesAlive++
		}
	}
	for _, q := range c.queues {
		rep.QueuedTasks += len(q)
	}
	if rep.ProbesDead > 0 {
		rep.Status = "degraded"
	}
	return rep
}
