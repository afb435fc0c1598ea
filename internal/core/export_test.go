package core

import (
	"math"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
)

// MetricJournal is the series that times the journal's appends, fsyncs and
// snapshots (op=append|fsync|snapshot), as internal/journal names it.
const MetricJournal = journal.MetricSeconds

// BreakJournal closes the journal file under a live controller, so the
// next mutation's append fails the way a dead disk would.
func (c *Controller) BreakJournal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal.Close()
}

// wholeQueue is the cap of a lease that asks for the whole queue:
// grant stops at the queue's length.
const wholeQueue = math.MaxInt32

// leaseTasks is a lease-only sync round for up to max tasks; max <= 0
// leases the whole queue.
func (c *Controller) leaseTasks(probeID string, max int) []probes.Task {
	if max <= 0 {
		max = wholeQueue
	}
	resp, _ := c.SyncProbe(probeID, nil, max)
	return resp.Tasks
}

// submitResults is a results-only sync round; it returns how many results
// were newly recorded.
func (c *Controller) submitResults(probeID string, rs []probes.Result) (int, error) {
	resp, err := c.SyncProbe(probeID, rs, -1)
	return resp.Accepted, err
}

// LeaseInfo is one outstanding lease as exposed for equivalence checks.
type LeaseInfo struct {
	Task     probes.Task `json:"task"`
	ProbeID  string      `json:"probe_id"`
	Deadline int64       `json:"deadline"`
}

// Leases snapshots the outstanding lease table, keyed by
// experiment+"/"+task.
func (c *Controller) Leases() map[string]LeaseInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]LeaseInfo, len(c.leases))
	for k, l := range c.leases {
		out[k] = LeaseInfo{Task: l.task, ProbeID: l.probeID, Deadline: l.deadline}
	}
	return out
}

// Queues snapshots every non-empty per-probe pending queue.
func (c *Controller) Queues() map[string][]probes.Task {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]probes.Task)
	for id, q := range c.queues {
		if len(q) > 0 {
			out[id] = append([]probes.Task(nil), q...)
		}
	}
	return out
}

// NotReady closes the gate again (a restart in progress).
func (g *RecoveryGate) NotReady() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.h = nil
}
