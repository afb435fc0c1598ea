package core

// sync.go is the probe protocol: POST /api/v1/probes/sync folds a
// probe's whole round into one request — the heartbeat, every spooled
// result it has to deliver, and the ask for its next task lease — and
// the controller folds the whole batch into ONE journal record (opSync),
// so one append and one fsync cover the round. In process, SyncProbe is
// the same round, so opSync is the only probe record a journal is ever
// given.
//
// With ?wait=<duration> the call long-polls: a probe with an empty queue
// parks on a per-probe channel until tasks are enqueued for it
// (experiment approval, queue reassignment, lease-expiry requeue) or the
// deadline passes. Wakeups are driven by the enqueue sites themselves —
// which the tick sweep calls — so parked probes cost no busy polling and
// nothing here reads the wall clock into journaled state (the deadline
// timer is a plain duration timer, invisible to replay).

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
)

// ErrUnknownProbe rejects traffic from a probe the fleet book has never
// seen; handlers map it to 404.
var ErrUnknownProbe = errors.New("core: unknown probe")

// DefaultLeaseMax is the lease size used when a client asks for the
// server default (max = 0 in a sync round).
const DefaultLeaseMax = 32

// MaxSyncWait caps ?wait= so a misconfigured probe cannot park a
// request slot indefinitely.
const MaxSyncWait = 30 * time.Second

// SyncRequest is the batched probe round-trip body. Max semantics: 0
// asks for the server default lease (DefaultLeaseMax), > 0 caps the
// lease, < 0 delivers results/heartbeat only, no lease.
type SyncRequest struct {
	ProbeID string          `json:"probe_id"`
	Results []probes.Result `json:"results,omitempty"`
	Max     int             `json:"max,omitempty"`
}

// SyncResponse acknowledges the batch and carries the granted lease.
// Accepted counts results newly recorded (duplicates dedup to zero);
// Received echoes the batch size, so Accepted < Received on retries is
// expected, not an error. Tasks is never nil from a controller, so "no
// tasks" encodes as [].
type SyncResponse struct {
	Accepted int           `json:"accepted"`
	Received int           `json:"received"`
	Tasks    []probes.Task `json:"tasks"`
}

// resolveSyncMax maps the wire Max to the journaled lease cap.
func resolveSyncMax(max int) int {
	if max == 0 {
		return DefaultLeaseMax
	}
	return max
}

// SyncProbe executes one batched round: validate and store the result
// payloads, then journal heartbeat + result refs + lease grant as a
// single opSync record. An unknown probe, experiment, or task rejects
// the whole batch without recording anything, so the probe keeps its
// spool and retries intact.
func (c *Controller) SyncProbe(probeID string, rs []probes.Result, max int) (SyncResponse, error) {
	return c.syncCtx(context.Background(), probeID, rs, max)
}

func (c *Controller) syncCtx(ctx context.Context, probeID string, rs []probes.Result, max int) (SyncResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncLocked(ctx, probeID, rs, resolveSyncMax(max))
}

// syncLocked is the one write path of the probe protocol; max is the
// resolved lease cap (< 0: no lease).
func (c *Controller) syncLocked(ctx context.Context, probeID string, rs []probes.Result, max int) (SyncResponse, error) {
	defer c.setSpanLocked(obs.SpanFrom(ctx))()
	st, ok := c.probes[probeID]
	if !ok {
		if len(rs) > 0 {
			c.stats.Inc("results_rejected")
		}
		return SyncResponse{}, fmt.Errorf("%w %s", ErrUnknownProbe, probeID)
	}
	// Payloads go to the results store before the refs are journaled: a
	// crash between the two leaves an unacknowledged payload that
	// read-time dedup collapses when the probe's retry lands.
	refs, seq, err := c.stageResultsLocked(st, rs)
	if err != nil {
		return SyncResponse{}, err
	}
	op := syncOp{ProbeID: probeID, Refs: refs, Seq: seq, Max: max}
	resp := SyncResponse{Received: len(rs)}
	if err := c.mutateLocked(opSync, op, func() {
		resp.Accepted, resp.Tasks = c.applySync(op, c.store.SealedSeq())
	}); err != nil {
		return SyncResponse{}, err
	}
	return resp, nil
}

// notifyWaitersLocked wakes every sync call parked on probeID's queue:
// the book's wake, called from its enqueue sites (approve, reassignment,
// lease-expiry requeue); during replay the parking lot is empty and this
// is a no-op, so the apply path stays deterministic.
func (c *Controller) notifyWaitersLocked(probeID string) {
	ws := c.waiters[probeID]
	if len(ws) == 0 {
		return
	}
	for _, ch := range ws {
		close(ch)
	}
	delete(c.waiters, probeID)
}

// syncWait registers a long-poll waiter for probeID. The queue check
// and the registration share one critical section, so an enqueue can
// never slip between "queue is empty" and "channel parked" — the
// classic missed-wakeup race. ready == true means tasks are already
// queued and the caller should lease instead of parking.
func (c *Controller) syncWait(probeID string) (ch chan struct{}, ready bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queues[probeID]) > 0 {
		return nil, true
	}
	ch = make(chan struct{})
	c.waiters[probeID] = append(c.waiters[probeID], ch)
	return ch, false
}

// dropWaiter removes a parked channel after a deadline or client
// disconnect (identity match; the channel may already have been closed
// and removed by a racing notify, which is fine).
func (c *Controller) dropWaiter(probeID string, target chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.waiters[probeID]
	for i, ch := range ws {
		if ch == target {
			c.waiters[probeID] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(c.waiters[probeID]) == 0 {
		delete(c.waiters, probeID)
	}
}

// leaseIfAvailableCtx runs a lease-only round when the probe's queue is
// non-empty, journaling nothing otherwise — a parked probe that wakes
// to a queue already drained by a competing request must not burn a
// journal record on an empty grant.
func (c *Controller) leaseIfAvailableCtx(ctx context.Context, probeID string, max int) []probes.Task {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queues[probeID]) == 0 {
		return nil
	}
	resp, _ := c.syncLocked(ctx, probeID, nil, max)
	return resp.Tasks
}

// waitForTasks parks until tasks are granted, the wait elapses, or the
// client goes away. The deadline is a plain duration timer: it never
// reads the wall clock into controller state, so the journaled history
// is identical whether or not anyone long-polled.
func (c *Controller) waitForTasks(ctx context.Context, probeID string, max int, wait time.Duration) []probes.Task {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		ch, ready := c.syncWait(probeID)
		if !ready {
			select {
			case <-ch:
			case <-deadline.C:
				c.dropWaiter(probeID, ch)
				return nil
			case <-ctx.Done():
				c.dropWaiter(probeID, ch)
				return nil
			}
		}
		if tasks := c.leaseIfAvailableCtx(ctx, probeID, max); len(tasks) > 0 {
			return tasks
		}
		// Woken but granted nothing (the queued copies had completed
		// elsewhere, or a competing request drained the queue first):
		// keep waiting out the deadline.
		select {
		case <-deadline.C:
			return nil
		case <-ctx.Done():
			return nil
		default:
		}
	}
}
