package core

// BreakJournal closes the journal file under a live controller, so the
// next mutation's append fails the way a dead disk would.
func (c *Controller) BreakJournal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log.Close()
}
