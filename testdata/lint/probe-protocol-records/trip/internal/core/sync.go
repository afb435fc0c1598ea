package core

// Beat journals a retired heartbeat record.
func (c *Controller) Beat() error {
	return c.mutateLocked(opHeartbeat, nil, func() {}) // trip: internal/core.Controller.mutateLocked(internal/core.opHeartbeat
}

// Lease journals a retired lease_grant record.
func (c *Controller) Lease() error {
	return c.mutateLocked((opLease), nil, func() {}) // trip: internal/core.Controller.mutateLocked(internal/core.opLease
}
