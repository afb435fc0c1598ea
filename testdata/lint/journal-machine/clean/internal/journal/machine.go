package journal

// Machine is an owner's one durable loop.
type Machine struct {
	log *Log
	ops map[string]func(*Machine)
}

// OpenMachine opens dir's journal and replays it.
func OpenMachine(dir string, kinds []string) (*Machine, error) {
	log, err := Open(dir)
	if err != nil {
		return nil, err
	}
	m := &Machine{log: log}
	applies, err := DecodeOps(m.ops, kinds)
	for _, apply := range applies {
		apply(m)
	}
	return m, err
}

// Do journals one record, then applies it.
func (m *Machine) Do(kind string, apply func()) error {
	if _, err := m.log.Append(kind, nil); err != nil {
		return err
	}
	apply()
	return nil
}

// Snapshot compacts the journal.
func (m *Machine) Snapshot() error {
	_, err := m.log.WriteSnapshot(nil, nil)
	return err
}
