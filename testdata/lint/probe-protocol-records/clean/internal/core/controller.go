package core

const (
	opSync      = "probe_sync"
	opSubmit    = "experiment_submit"
	opHeartbeat = "heartbeat"
	opLease     = "lease_grant"
	opResults   = "results_accept"
)

// Controller journals every mutation through mutateLocked.
type Controller struct{ log []string }

func (c *Controller) mutateLocked(kind string, v any, apply func()) error {
	c.log = append(c.log, kind)
	apply()
	return nil
}
