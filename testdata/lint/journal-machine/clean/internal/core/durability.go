package core

import "github.com/afrinet/observatory/internal/journal"

// Controller journals through its machine.
type Controller struct{ journal *journal.Machine }

func (c *Controller) mutateLocked(kind string, apply func()) error {
	if err := c.journal.Do(kind, apply); err != nil {
		return err
	}
	return c.journal.Snapshot()
}
