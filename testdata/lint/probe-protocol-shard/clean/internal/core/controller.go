package core

// Backend is the API both tiers serve.
type Backend interface{ Submit(id string) error }

// Controller is one shard.
type Controller struct{ ids []string }

// Submit takes a submission.
func (c *Controller) Submit(id string) error { return c.SubmitWithID(id) }

// SubmitWithID is the second copy of the submit call.
func (c *Controller) SubmitWithID(id string) error {
	c.ids = append(c.ids, id)
	return nil
}
