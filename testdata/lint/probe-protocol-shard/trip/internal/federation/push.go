package federation

import "github.com/afrinet/observatory/internal/core"

// Push hands a partition to a shard by its second submit call.
func Push(c *core.Controller, id string) error {
	return c.SubmitWithID(id) // trip: internal/core.Controller.SubmitWithID
}
