package federation

import "github.com/afrinet/observatory/internal/journal"

// Coordinator replays and appends on its own.
type Coordinator struct{ log *journal.Log }

// New opens and replays the coordinator's journal itself.
func New(dir string) (*Coordinator, error) {
	log, err := journal.Open(dir) // trip: internal/journal.Open
	if err != nil {
		return nil, err
	}
	c := &Coordinator{log: log}
	applies, err := journal.DecodeOps(map[string]func(*Coordinator){}, nil) // trip: internal/journal.DecodeOps
	for _, apply := range applies {
		apply(c)
	}
	return c, err
}

func (c *Coordinator) appendLocked(kind string) error {
	_, err := c.log.Append(kind, nil) // trip: internal/journal.Log.Append
	return err
}
