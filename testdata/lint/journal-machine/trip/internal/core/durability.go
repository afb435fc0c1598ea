package core

import "github.com/afrinet/observatory/internal/journal"

// Controller snapshots through the log itself.
type Controller struct{ log *journal.Log }

func (c *Controller) snapshotLocked() error {
	_, err := c.log.WriteSnapshot(nil, nil) // trip: internal/journal.Log.WriteSnapshot
	return err
}
