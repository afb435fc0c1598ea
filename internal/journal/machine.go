package journal

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/afrinet/observatory/internal/obs"
)

// The series a Machine records on its owner's registry: append, fsync and
// snapshot timings (label op), events, and the last snapshot's size.
const (
	MetricSeconds = "obs_journal_seconds"
	MetricEvents  = "obs_durability_events_total"
	MetricGauge   = "obs_durability_gauge"
)

// Owner is what a Machine keeps durable: State, the Op table its records
// replay through, and its snapshot codec — Decode rebuilds State from a
// snapshot, Encode renders it as WriteSnapshot takes one; an owner without
// Decode writes none, and its Machine refuses a directory that holds one.
// Every is how many appends an automatic snapshot follows, 0 none.
type Owner[C any] struct {
	State  C
	Ops    map[string]Op[C]
	Decode func(*Snapshot) error
	Encode func() (head any, frames [][]byte, err error)
	Every  int
	Obs    *obs.Registry
}

// Machine is an owner's one durable loop over a journal directory: it
// rebuilds the owner's state, then is its only write path. The owner calls
// it under its own lock. A nil *Machine is an owner kept in memory: Do only
// applies, Snapshot and Close do nothing.
type Machine[C any] struct {
	owner Owner[C]
	log   *Log
	since int       // records appended since the last snapshot
	span  *obs.Span // the append or snapshot in progress: its fsync nests beneath

	hAppend, hFsync, hSnapshot *obs.Histogram
	events, gauge              *obs.Family
}

// OpenMachine opens dir's journal for owner and times every fsync of it;
// Rebuild then replays it. A directory holding a snapshot the owner does
// not read is refused before anything in it is touched.
func OpenMachine[C any](dir string, owner Owner[C]) (*Machine[C], error) {
	if _, err := os.Stat(filepath.Join(dir, snapName)); err == nil && owner.Decode == nil {
		return nil, fmt.Errorf("journal: %s holds %s, which this journal's owner does not read", dir, snapName)
	}
	log, err := Open(dir)
	if err != nil {
		return nil, err
	}
	for log.Snap != nil && len(log.Records) > 0 && log.Records[0].Seq <= log.Snap.Seq {
		log.Records = log.Records[1:] // covered by the snapshot: neither checked nor replayed
	}
	hist := func(op string) *obs.Histogram { return owner.Obs.Hist(MetricSeconds, "op", op) }
	m := &Machine[C]{owner: owner, log: log, hAppend: hist("append"), hFsync: hist("fsync"), hSnapshot: hist("snapshot"),
		events: owner.Obs.Counters(MetricEvents), gauge: owner.Obs.Gauges(MetricGauge)}
	log.WrapSync = func(sync func() error) error {
		sp := m.span.Child("journal.fsync")
		t := obs.StartTimer()
		err := sync()
		sp.End()
		m.hFsync.Observe(t.Elapsed())
		return err
	}
	// Of those fsyncs, the ones that also paid for a file-size change.
	log.OnGrow = func() { m.events.Inc("journal_log_grows") }
	return m, nil
}

// Rebuild replays the directory into the owner's state: the snapshot, then
// the records past it, all decoded before any applies (a crash between the
// snapshot's rename and the journal's compaction leaves records it covers,
// which are skipped). phase is told each step as it ends: "snapshot",
// "decode", "replay". It returns, as it counts them, the records replayed
// and whether Open cut a torn tail, and drops the recovery view, which
// aliases both files' images.
func (m *Machine[C]) Rebuild(phase func(step string)) (replayed int, torn bool, err error) {
	l := m.log
	defer func() { l.Snap, l.Records = nil, nil }()
	if l.Snap != nil {
		if err := m.owner.Decode(l.Snap); err != nil {
			return 0, false, fmt.Errorf("decoding snapshot: %w", err)
		}
		m.gauge.Set("snapshot_bytes", l.Snap.Bytes)
		m.gauge.Set("snapshot_frames", int64(len(l.Snap.Frames)+1))
	}
	phase("snapshot")
	ops, err := DecodeOps(m.owner.Ops, l.Records)
	if err != nil {
		return 0, false, err
	}
	phase("decode")
	for _, apply := range ops {
		apply(m.owner.State)
	}
	m.events.Add("recovery_replayed", int64(len(ops)))
	if l.TornTail {
		m.events.Inc("recovery_truncated_tail")
	}
	phase("replay")
	return len(ops), l.TornTail, nil
}

// CheckKinds returns the error Rebuild will, before Rebuild runs, for a
// journal whose records past the snapshot include a kind the owner's table
// lacks: the first record's that fails to decode. An owner that opens more
// than its journal in the directory calls it first, so that a directory it
// refuses by kind is left as it found it.
func (m *Machine[C]) CheckKinds() error {
	for i, rec := range m.log.Records {
		if _, ok := m.owner.Ops[rec.Kind]; !ok {
			_, err := DecodeOps(m.owner.Ops, m.log.Records[:i+1])
			return err
		}
	}
	return nil
}

// Do is a mutation's write path: journal the validated op under a
// journal.append span beneath parent, apply it, then snapshot if one is
// due. A mutation the journal did not take is neither applied nor
// acknowledged: the append's error is the only one Do returns. The
// snapshot follows apply, or it would claim a record whose effects it
// lacks; its failure is counted and leaves the journal authoritative.
func (m *Machine[C]) Do(parent *obs.Span, kind string, v any, apply func()) error {
	if m == nil {
		apply()
		return nil
	}
	m.span = parent.Child("journal.append")
	t := obs.StartTimer()
	_, err := m.log.Append(kind, v)
	m.span.End()
	m.span = nil
	m.hAppend.Observe(t.Elapsed())
	if err != nil {
		m.events.Inc("journal_append_errors")
		return err
	}
	m.events.Inc("journal_records_appended")
	m.since++
	apply()
	if m.owner.Every > 0 && m.since >= m.owner.Every {
		_ = m.Snapshot(parent)
	}
	return nil
}

// Snapshot durably captures the owner's state and compacts the journal,
// under a journal.snapshot span beneath parent.
func (m *Machine[C]) Snapshot(parent *obs.Span) error {
	if m == nil {
		return nil
	}
	m.span = parent.Child("journal.snapshot")
	t := obs.StartTimer()
	head, frames, err := m.owner.Encode()
	var size int64
	if err == nil {
		size, err = m.log.WriteSnapshot(head, frames)
	}
	m.span.End()
	m.span = nil
	m.hSnapshot.Observe(t.Elapsed())
	if err != nil {
		m.events.Inc("snapshot_errors")
		return err
	}
	m.events.Inc("snapshots_written")
	m.gauge.Set("snapshot_bytes", size)
	m.gauge.Set("snapshot_frames", int64(len(frames)+1)) // with the header frame
	m.since = 0
	return nil
}

// Seq returns the last sequence number assigned.
func (m *Machine[C]) Seq() uint64 { return m.log.Seq() }

// Close closes the journal without a snapshot.
func (m *Machine[C]) Close() error {
	if m == nil {
		return nil
	}
	return m.log.Close()
}
