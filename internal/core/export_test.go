package core

import "github.com/afrinet/observatory/internal/probes"

// BreakJournal closes the journal file under a live controller, so the
// next mutation's append fails the way a dead disk would.
func (c *Controller) BreakJournal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log.Close()
}

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
