// Package spool is the probe-side durability layer: a disk-backed
// outbox that persists completed measurement results *before* an upload
// is attempted, so a power cut between task completion and delivery
// cannot strand the measurement. The paper's Section 7 deployment
// reality — probes on intermittent grid power behind flaky, metered
// cellular uplinks — makes this the difference between re-spending a
// probe's data budget on re-work and delivering what was already paid
// for.
//
// # On-disk layout
//
// A spool directory holds one live file, spool.log: an internal/framelog
// log (frames, torn-tail truncation and the fail-stop rule are described
// there) whose payloads are JSON journal.Records of two kinds:
//
//	result  one executed probes.Result awaiting delivery
//	ack     {"upto": seq} — every result frame with Seq <= upto has
//	        been delivered (or evicted) and is no longer pending
//
// Append syncs before returning, so an acknowledged Append survives a
// power cut. Acks are also synced: an acked result must never be
// re-delivered after a restart only because the ack evaporated
// (re-delivery is harmless — the controller dedups — but it burns the
// cellular budget). After a failed write or sync the spool is stopped:
// every later Append and AckBatch returns an error wrapping
// framelog.ErrStopped until the directory is reopened, and the reopen
// offers every result whose Append returned nil.
//
// # Bounds
//
// The pending backlog is bounded (Options.MaxPending): when a probe is
// cut off long enough to fill the spool, the oldest undelivered results
// are evicted first (newest data is worth the most to a measurement
// platform) and counted in spool_evicted. The log file itself is
// compacted — atomically replaced by its pending frames — once enough
// delivered frames accumulate, so disk use tracks the backlog, not the
// probe's lifetime upload volume.
package spool

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
)

const (
	logName = "spool.log"

	kindResult = "result"
	kindAck    = "ack"
)

// DefaultMaxPending bounds the undelivered backlog when Options leaves
// MaxPending zero.
const DefaultMaxPending = 4096

// DefaultCompactAfter is how many delivered (acked) frames may sit in
// the log before a compaction rewrites it down to the pending set.
const DefaultCompactAfter = 1024

// Options configures a spool.
type Options struct {
	// MaxPending bounds the undelivered backlog; beyond it the oldest
	// pending results are evicted (and counted). 0 means
	// DefaultMaxPending; negative means unbounded.
	MaxPending int
	// CompactAfter is how many consumed (acked or evicted) frames may
	// accumulate in the log before it is rewritten to only the pending
	// set. 0 means DefaultCompactAfter.
	CompactAfter int
	// Obs is the metric registry the spool counts into: its events in
	// obs_probe_resilience_total, its backlog depth as spool_frames_pending
	// in obs_probe_gauge. Nil gets a private registry, as for a store.
	Obs *obs.Registry
}

// ackBody is the payload of an ack frame.
type ackBody struct {
	UpTo uint64 `json:"upto"`
}

// entry is one pending result and the frame sequence that persisted it.
type entry struct {
	seq uint64
	res probes.Result
}

// Spool is an open outbox directory. Safe for concurrent use, though a
// probe normally drives it from one goroutine.
type Spool struct {
	mu   sync.Mutex
	dir  string
	log  *framelog.Log
	opts Options

	seq      uint64  // last frame sequence assigned
	pending  []entry // oldest-first undelivered results
	consumed int     // acked/evicted frames still occupying the log
	ctr      *obs.Family
	gauge    *obs.Family // spool_frames_pending, set wherever pending changes
}

// Open opens (creating if needed) a spool directory, replays the log to
// rebuild the pending backlog, truncates any torn tail, and positions
// the file for appending. A probe killed mid-run reopens its spool and
// finds every result it persisted but never delivered.
func Open(dir string, opts Options) (*Spool, error) {
	if opts.MaxPending == 0 {
		opts.MaxPending = DefaultMaxPending
	}
	if opts.CompactAfter <= 0 {
		opts.CompactAfter = DefaultCompactAfter
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Spool{dir: dir, opts: opts, ctr: reg.Counters("obs_probe_resilience_total"), gauge: reg.Gauges("obs_probe_gauge")}

	// A crash between writing the compaction temp file and the rename
	// leaves spool.log.tmp behind; the live log is still authoritative
	// (the rename never landed), so the stale temp is deleted rather
	// than trusted.
	path := filepath.Join(dir, logName)
	if err := os.Remove(path + ".tmp"); err == nil {
		s.ctr.Inc("spool_tmp_removed")
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("spool: %w", err)
	}

	replayed := 0
	log, torn, err := framelog.Open(path, func(payloads [][]byte) int {
		for _, rec := range journal.DecodeRecords(payloads) {
			replayed++
			s.replay(rec)
		}
		return replayed
	})
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	s.log = log
	s.gauge.Set("spool_frames_pending", int64(len(s.pending)))
	log.OnGrow = func() { s.ctr.Inc("spool_log_grows") }
	s.ctr.Add("spool_replayed", int64(replayed))
	if torn {
		s.ctr.Inc("spool_truncated_tail")
	}
	return s, nil
}

// replay applies one frame found at Open to the pending set.
func (s *Spool) replay(rec journal.Record) {
	s.seq = rec.Seq
	switch rec.Kind {
	case kindResult:
		var r probes.Result
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			// An undecodable result frame passed its CRC, so this is
			// a format skew, not corruption; skip it rather than
			// refusing the whole backlog.
			s.consumed++
			return
		}
		s.pending = append(s.pending, entry{seq: rec.Seq, res: r})
	case kindAck:
		var ab ackBody
		if err := json.Unmarshal(rec.Data, &ab); err == nil {
			s.dropThroughLocked(ab.UpTo)
		}
		s.consumed++ // the ack frame itself is dead weight post-replay
	default:
		s.consumed++
	}
}

// dropThroughLocked removes every pending entry with seq <= upTo,
// moving them to the consumed count.
func (s *Spool) dropThroughLocked(upTo uint64) int {
	i := 0
	for i < len(s.pending) && s.pending[i].seq <= upTo {
		i++
	}
	if i == 0 {
		return 0
	}
	s.pending = append(s.pending[:0], s.pending[i:]...)
	s.consumed += i
	s.gauge.Set("spool_frames_pending", int64(len(s.pending)))
	return i
}

// writeFrameLocked encodes and writes one frame; the caller syncs.
func (s *Spool) writeFrameLocked(kind string, data any) error {
	frame, err := journal.EncodeOp(s.seq+1, kind, data)
	if err == nil {
		err = s.log.Write(frame)
	}
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	s.seq++
	return nil
}

// Append persists one executed result, syncing to stable storage before
// returning — only after Append returns may the caller attempt (or
// defer) the upload. When the backlog bound is exceeded the oldest
// pending results are evicted in the same durable write.
func (s *Spool) Append(r probes.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeFrameLocked(kindResult, r); err != nil {
		return err
	}
	s.pending = append(s.pending, entry{seq: s.seq, res: r})
	s.gauge.Set("spool_frames_pending", int64(len(s.pending)))
	s.ctr.Inc("spool_frames_appended")
	for s.opts.MaxPending > 0 && len(s.pending) > s.opts.MaxPending {
		oldest := s.pending[0].seq
		if err := s.writeFrameLocked(kindAck, ackBody{UpTo: oldest}); err != nil {
			return err
		}
		s.dropThroughLocked(oldest)
		s.consumed++ // the eviction ack frame
		s.ctr.Inc("spool_evicted")
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	return s.maybeCompactLocked()
}

// DrainBatch returns up to max of the oldest undelivered results (all
// of them when max <= 0) as one delivery frame, plus the sequence to
// pass to AckBatch once the whole frame is delivered. Results are
// copied, not removed: until the matching AckBatch lands they remain
// pending and survive a restart, so a failed upload re-offers the same
// frame. An empty backlog returns (nil, 0). This is the producer half
// of the batched sync path — a probe drains a frame, ships it in one
// POST /api/v1/probes/sync, and acks the frame in bulk.
func (s *Spool) DrainBatch(max int) ([]probes.Result, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil, 0
	}
	n := len(s.pending)
	if max > 0 && max < n {
		n = max
	}
	out := make([]probes.Result, n)
	for i := 0; i < n; i++ {
		out[i] = s.pending[i].res
	}
	return out, s.pending[n-1].seq
}

// AckBatch durably retires every result up to and including upTo in
// one ack frame and one fsync — the whole delivered batch costs a
// single durable write, mirroring the controller's one-append-per-sync
// journaling. The fsync lands before the pending set is trimmed
// (fsync-before-ack): a power cut during AckBatch re-offers the batch
// on reopen, never drops it. Retired results are not offered again,
// even across a restart.
func (s *Spool) AckBatch(upTo uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Err(); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	dropped := 0
	for _, e := range s.pending {
		if e.seq <= upTo {
			dropped++
		}
	}
	if dropped == 0 {
		return nil
	}
	if err := s.writeFrameLocked(kindAck, ackBody{UpTo: upTo}); err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	s.dropThroughLocked(upTo)
	s.consumed++ // the ack frame
	s.ctr.Add("spool_frames_acked", int64(dropped))
	return s.maybeCompactLocked()
}

// maybeCompactLocked rewrites the log down to the pending set once
// enough consumed frames have accumulated; the old log stays valid until
// the replacement is durably in place.
func (s *Spool) maybeCompactLocked() error {
	if s.consumed < s.opts.CompactAfter {
		return nil
	}
	var content []byte
	for _, e := range s.pending {
		frame, err := journal.EncodeOp(e.seq, kindResult, e.res)
		if err != nil {
			return fmt.Errorf("spool: compacting: %w", err)
		}
		content = append(content, frame...)
	}
	if err := s.log.Replace(content); err != nil {
		return fmt.Errorf("spool: compacting: %w", err)
	}
	s.consumed = 0
	s.ctr.Inc("spool_compactions")
	return nil
}

// Len reports the undelivered backlog size.
func (s *Spool) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Dir returns the spool directory.
func (s *Spool) Dir() string { return s.dir }

// Counters snapshots the spool's event counters plus the current
// backlog depth as spool_frames_pending: the two families of its
// registry, which a probe's client may share.
func (s *Spool) Counters() map[string]int64 { return obs.Union(s.ctr, s.gauge) }

// Close closes the spool file. Pending results stay on disk for the
// next Open — Close is how a clean shutdown (or a simulated power cut
// in tests) parks the backlog.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
