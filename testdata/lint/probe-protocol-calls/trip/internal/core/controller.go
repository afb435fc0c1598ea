package core

// Controller serves probe calls.
type Controller struct{ beats int }

// SyncProbe is one probe call.
func (c *Controller) SyncProbe(id string) int { c.beats++; return c.beats }

// Heartbeat is a per-call method grown back.
func (c *Controller) Heartbeat(id string) int { return c.SyncProbe(id) }

// LeaseTasks is another.
func (c *Controller) LeaseTasks(id string) int { return c.SyncProbe(id) }
