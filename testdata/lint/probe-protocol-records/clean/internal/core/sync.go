package core

// replay reads the retired records back.
var replay = map[string]bool{opHeartbeat: true, opLease: true, opResults: true, opSubmit: true}

// Sync journals one probe_sync record.
func (c *Controller) Sync() error {
	return c.mutateLocked(opSync, replay[opHeartbeat], func() {})
}
