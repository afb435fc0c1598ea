package core

// Controller serves probe calls.
type Controller struct{ beats int }

// SyncProbe is one probe call.
func (c *Controller) SyncProbe(id string) int { c.beats++; return c.beats }

// Agent is a probe, whose heartbeat is its own.
type Agent struct{ c *Controller }

// Heartbeat is one SyncProbe round.
func (a Agent) Heartbeat(id string) int { return a.c.SyncProbe(id) }
