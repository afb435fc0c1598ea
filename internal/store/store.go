// Package store is the observatory's results store: a log-structured,
// append-only home for measurement results, decoupled from the
// control-plane journal so result volume never bloats snapshots or
// replay.
//
// # Shape
//
// Appends land in an in-memory memtable. When the memtable reaches
// Options.FlushEvery records it is sealed into an immutable segment —
// written whole and atomically (internal/framelog) — carrying a sparse
// index (SegmentMeta: seq range, tick range, distinct experiments,
// countries, ASNs) as its first frame. Queries prune segments on that index and
// stream the survivors' records in sequence order through one visitor
// (query.go). A sealed segment is decoded at most once while it stays in
// the store's segment cache (cache.go): flushes and compactions seed the
// cache with the records they just wrote, a full-store read decodes
// whatever is missing in parallel (internal/par) before the serial
// stream — so a parallel scan is byte-identical to a serial one — and a
// page stops decoding at the segment that completes it.
//
// Compaction merges runs of small adjacent segments into larger ones
// and applies the retention policy (records older than Options.Retention
// ticks are dropped); it only ever writes a new segment and then deletes
// the inputs, so a crash at any point leaves a readable store — Open
// prunes input segments whose sequence range a later segment subsumes,
// completing the interrupted compaction.
//
// # Durability contract
//
// Sealed segments are durable; the memtable is not, and SealedSeq is the
// line between them. A crash loses at most the memtable — the controller
// journals each result's sequence number, and at recovery requeues the
// tasks whose result sits above the reopened store's SealedSeq (see
// internal/core). Duplicate
// records for the same (experiment, task) — possible when a crash lands
// between the store append and the journal append — are collapsed at
// read time: every scan and aggregation keeps, per key, the lowest-seq
// record among those its filter matches.
//
// A store directory has a single writer at a time, like the journal;
// readers of sealed segments need no coordination.
package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// Record is one stored measurement result plus the index keys queries
// filter and group on. Seq is assigned by Append: a strictly increasing
// store-wide sequence that survives flushes, compactions, retention and
// restarts (a number that reached a sealed segment is never assigned
// again — see SealedSeq), giving scans a stable total order (and cursors
// a stable meaning).
type Record struct {
	Seq        uint64        `json:"seq"`
	Experiment string        `json:"experiment"`
	TaskID     string        `json:"task_id"`
	ProbeID    string        `json:"probe_id"`
	Tick       int64         `json:"tick"`
	Country    string        `json:"country,omitempty"`
	ASN        topology.ASN  `json:"asn,omitempty"`
	Result     probes.Result `json:"result"`
}

// Key is the record's dedup identity: one result per (experiment, task).
func (r Record) Key() string { return r.Experiment + "/" + r.TaskID }

// DedupKey is Key as a comparable value: what the read paths dedup on,
// with no string built per record.
type DedupKey struct{ Experiment, TaskID string }

// Options parameterizes a Store.
type Options struct {
	// FlushEvery seals the memtable into a segment once it holds this
	// many records (default 1024). 1 makes every append durable
	// immediately.
	FlushEvery int
	// Retention is how many ticks of results to keep; records whose
	// Tick is older than now-Retention are dropped at compaction.
	// 0 keeps everything forever.
	Retention int64
	// TargetFrames caps how large (in records) a compacted segment may
	// grow (default 4 * FlushEvery). Adjacent segments are merged while
	// their combined size stays within it.
	TargetFrames int
	// Obs is the metric registry the store records into: its operation
	// latencies (obs_store_seconds, op=ingest|flush|compact|scan|
	// aggregate), its event counters (obs_store_events_total) and its
	// cache readings (obs_store_gauge). Nil gets a private registry, so
	// standalone stores pay the same instrumentation cost without needing
	// a wiring step.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 1024
	}
	if o.TargetFrames <= 0 {
		o.TargetFrames = 4 * o.FlushEvery
	}
	return o
}

// Store is the log-structured results store. Safe for concurrent use:
// appends, flushes, and compaction serialize on a write lock; queries
// share a read lock (segment decodes happen under it, so sealed segments
// cannot vanish mid-scan).
type Store struct {
	mu        sync.RWMutex
	dir       string // "" = memory-only (segments kept in RAM)
	opts      Options
	segs      []*segment // sorted by meta.MinSeq; seq ranges are disjoint
	mem       []Record
	memRaws   [][]byte               // mem's encodings, nil until a page takes the record (ScanItems)
	memKeys   []uint64               // mem's key summary, kept sorted by Append
	sumMu     sync.Mutex             // guards sum and its folds among readers; a writer holds mu
	sum       *sealedSummary         // of segs up to its upTo, nil until a read builds it (summary.go)
	memos     map[string]*ReportMemo // the last aggregate's report, by group_by (Fold); kept through every change of segs
	nextSeq   uint64
	nextSegID uint64
	ctr       *obs.Family
	cache     *segCache // decoded records and frame payloads of sealed disk segments; has its own lock
	closed    bool

	// Cached latency series from Options.Obs; observing is lock-free.
	hIngest    *obs.Histogram
	hFlush     *obs.Histogram
	hCompact   *obs.Histogram
	hScan      *obs.Histogram
	hAggregate *obs.Histogram
}

// newStore builds an empty store over dir and caches its latency series
// from the options' registry (a private one when they carry none).
func newStore(dir string, opts Options) *Store {
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), ctr: reg.Counters("obs_store_events_total"), nextSeq: 1, nextSegID: 1}
	s.cache = &segCache{budget: cacheBudget, byID: make(map[uint64]*list.Element), lru: list.New(), ctr: s.ctr, gauge: reg.Gauges("obs_store_gauge")}
	s.memos = NewReportMemos(func(reused, finished int) {
		s.ctr.Add("report_groups_reused", int64(reused))
		s.ctr.Add("report_groups_finished", int64(finished))
	})
	if dir != "" { // charged as the sealed summary is
		for _, m := range s.memos {
			m.charge = s.cache.chargeSummary
		}
	}
	s.hIngest = reg.Hist("obs_store_seconds", "op", "ingest")
	s.hFlush = reg.Hist("obs_store_seconds", "op", "flush")
	s.hCompact = reg.Hist("obs_store_seconds", "op", "compact")
	s.hScan = reg.Hist("obs_store_seconds", "op", "scan")
	s.hAggregate = reg.Hist("obs_store_seconds", "op", "aggregate")
	return s
}

// NewMemory creates a store with no backing directory: segments live in
// memory. Used by in-memory controllers and tests; the query and
// compaction paths are identical to a disk store's.
func NewMemory(opts Options) *Store { return newStore("", opts) }

// Open opens (creating if needed) a store directory, loads every sealed
// segment's sparse index, deletes stray temp files from interrupted
// flushes, and prunes segments subsumed by an interrupted compaction's
// output. An empty dir yields a memory-only store.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return NewMemory(opts), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := newStore(dir, opts)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A flush or compaction died before its rename; the record
			// frames inside were never acknowledged as sealed.
			_ = os.Remove(filepath.Join(dir, name))
			s.ctr.Inc("segments_tmp_removed")
			continue
		}
		var id uint64
		if n, err := fmt.Sscanf(name, "seg-%016x.seg", &id); n != 1 || err != nil {
			continue
		}
		meta, err := readSegmentMeta(filepath.Join(dir, name))
		if err != nil {
			// Unreadable index: leave the file for forensics, serve
			// without it.
			s.ctr.Inc("segments_unreadable")
			continue
		}
		s.segs = append(s.segs, &segment{id: id, meta: meta, path: filepath.Join(dir, name)})
		if id >= s.nextSegID {
			s.nextSegID = id + 1
		}
		if meta.MaxSeq >= s.nextSeq {
			s.nextSeq = meta.MaxSeq + 1
		}
	}
	sort.Slice(s.segs, func(i, j int) bool {
		if s.segs[i].meta.MinSeq != s.segs[j].meta.MinSeq {
			return s.segs[i].meta.MinSeq < s.segs[j].meta.MinSeq
		}
		return s.segs[i].id < s.segs[j].id
	})
	s.pruneSubsumedLocked()
	return s, nil
}

// pruneSubsumedLocked completes an interrupted compaction: a segment
// whose sequence range lies entirely within another (higher-id, i.e.
// newer) segment's range is a compaction input whose deletion never
// happened. The output is authoritative — it already applied retention —
// so the input is dropped and its file deleted.
func (s *Store) pruneSubsumedLocked() {
	keep := s.segs[:0]
	for _, sg := range s.segs {
		subsumed := false
		for _, other := range s.segs {
			if other == sg || other.id <= sg.id {
				continue
			}
			if other.meta.MinSeq <= sg.meta.MinSeq && sg.meta.MaxSeq <= other.meta.MaxSeq {
				subsumed = true
				break
			}
		}
		if subsumed {
			if sg.path != "" {
				_ = os.Remove(sg.path)
			}
			s.ctr.Inc("segments_subsumed")
			continue
		}
		keep = append(keep, sg)
	}
	s.segs = keep
}

// Append stores records, assigning each its sequence number. The
// memtable is sealed into a segment when it reaches FlushEvery records.
// Records live only in memory until sealed; callers needing the
// stronger guarantee call Flush (or set FlushEvery to 1).
func (s *Store) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	t := obs.StartTimer()
	defer func() { s.hIngest.Observe(t.Elapsed()) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	current := s.sum != nil && s.sum.upTo == s.sealedSeqLocked() // a stale one's next gets its flags afresh
	for i := range recs {
		recs[i].Seq = s.nextSeq
		s.nextSeq++
		s.mem, s.memRaws = append(s.mem, recs[i]), append(s.memRaws, nil)
		h := keyHash(recs[i].Experiment, recs[i].TaskID)
		at, found := slices.BinarySearch(s.memKeys, h)
		s.memKeys = slices.Insert(s.memKeys, at, h)
		if current && (found || holds(s.sum.keys, h)) {
			s.sum.memRepeats = true
		}
	}
	s.ctr.Add("store_frames_appended", int64(len(recs)))
	if len(s.mem) >= s.opts.FlushEvery {
		return s.flushLocked()
	}
	return nil
}

// Flush seals the memtable into a segment now. No-op when empty.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	t := obs.StartTimer()
	defer func() { s.hFlush.Observe(t.Elapsed()) }()
	sg, err := s.sealLocked(decoded{recs: s.mem, raws: s.memRaws, keys: s.memKeys})
	if err != nil {
		return err
	}
	s.segs = append(s.segs, sg) // the summary, now stale, is kept for the next read to derive from
	s.mem, s.memRaws, s.memKeys = nil, nil, nil
	s.ctr.Inc("segments_flushed")
	return nil
}

// sealLocked makes d's records, with their key summary, the store's
// next segment: kept in memory by a dir-less store, otherwise written
// durably and seeded into the segment cache with the payloads just
// written.
func (s *Store) sealLocked(d decoded) (*segment, error) {
	meta := buildMeta(d.recs)
	sg := &segment{id: s.nextSegID, meta: meta}
	if s.dir == "" {
		d.raws = nil
		sg.mem = d
	} else {
		encoded := len(d.recs)
		for _, raw := range d.raws {
			if raw != nil {
				encoded--
			}
		}
		s.ctr.Add("records_encoded", int64(encoded))
		path, written, err := writeSegmentFile(s.dir, sg.id, meta, d)
		if err != nil {
			s.ctr.Inc("segment_write_errors")
			return nil, err
		}
		sg.path = path
		written.keys = d.keys
		s.cache.put(sg.id, written)
	}
	s.nextSegID++
	return sg, nil
}

// Compact merges runs of small adjacent segments into larger ones and
// applies the retention policy relative to the given current tick:
// records older than Options.Retention ticks are dropped, and segments
// that are entirely expired are deleted without being read. now is the
// controller's logical clock, so compaction stays deterministic.
func (s *Store) Compact(now int64) error {
	t := obs.StartTimer()
	defer func() { s.hCompact.Observe(t.Elapsed()) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	cutoff := int64(-1) // no expiry
	if s.opts.Retention > 0 && now >= s.opts.Retention {
		cutoff = now - s.opts.Retention // ticks strictly older expire
	}
	before := slices.Clone(s.segs)
	defer func() {
		if !slices.Equal(s.segs, before) {
			s.dropSummaryLocked()
		}
	}()

	// Drop segments that retention has expired wholesale — except the
	// newest: its MaxSeq is the sealed watermark (see SealedSeq), which a
	// reopen can only learn from a file. It goes once a newer one seals.
	if cutoff >= 0 {
		keep := s.segs[:0]
		for i, sg := range s.segs {
			if sg.meta.MaxTick < cutoff && i < len(s.segs)-1 {
				if sg.path != "" {
					if err := os.Remove(sg.path); err != nil {
						keep = append(keep, sg) // try again next sweep
						continue
					}
				}
				s.cache.drop(sg.id)
				s.ctr.Add("frames_expired", int64(sg.meta.Frames))
				continue
			}
			keep = append(keep, sg)
		}
		s.segs = keep
	}

	// Greedily group adjacent segments whose combined size stays within
	// TargetFrames; every group of two or more is rewritten as one.
	var out []*segment
	watermark := s.sealedSeqLocked()
	i := 0
	for i < len(s.segs) {
		group := []*segment{s.segs[i]}
		frames := s.segs[i].meta.Frames
		j := i + 1
		for j < len(s.segs) && frames+s.segs[j].meta.Frames <= s.opts.TargetFrames {
			frames += s.segs[j].meta.Frames
			group = append(group, s.segs[j])
			j++
		}
		if len(group) < 2 {
			out = append(out, s.segs[i])
			i++
			continue
		}
		merged, err := s.mergeLocked(group, cutoff, watermark)
		if err != nil {
			return err
		}
		if merged != nil {
			out = append(out, merged)
		}
		i = j
	}
	s.segs = out
	return nil
}

// mergeLocked rewrites a run of adjacent segments as one, dropping
// expired records other than the one at seq keep (the sealed watermark,
// which must stay on disk), and keeping the others' payloads and, while
// none expires, merging the inputs' key summaries. The new segment is
// durably in place before any input is deleted; Open's subsumption
// pruning covers a crash in between. A fully-expired merge yields
// (nil, nil) and just deletes the inputs.
func (s *Store) mergeLocked(group []*segment, cutoff int64, keep uint64) (*segment, error) {
	var out decoded
	expired := false
	for _, sg := range group {
		d, err := s.load(sg)
		if err != nil {
			return nil, err
		}
		for i := range d.recs {
			if cutoff >= 0 && d.recs[i].Tick < cutoff && d.recs[i].Seq != keep {
				s.ctr.Inc("frames_expired")
				expired = true
				continue
			}
			out.recs, out.raws = append(out.recs, d.recs[i]), append(out.raws, d.raw(i))
		}
		out.keys = mergeRun(nil, out.keys, d.keys)
	}
	if expired {
		out.keys = summarize(out.recs)
	}
	var merged *segment
	if len(out.recs) > 0 {
		var err error
		if merged, err = s.sealLocked(out); err != nil {
			return nil, err
		}
	}
	for _, sg := range group {
		if sg.path != "" {
			_ = os.Remove(sg.path)
		}
		s.cache.drop(sg.id)
	}
	s.ctr.Add("segments_compacted", int64(len(group)))
	return merged, nil
}

// Close seals the memtable so everything appended so far is durable.
// Further operations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked()
	s.closed = true
	return err
}

// Counters snapshots the store's event counters
// (store_frames_appended, segments_flushed, segments_compacted,
// frames_expired, queries_served, segment_cache_hits/_misses/_evictions,
// ...) and the two obs_store_gauge readings: segment_cache_records, how
// many decoded records the segment cache holds now, and
// segment_cache_bytes, how many bytes of segment file image it keeps
// beside them. They are scoped to the current process run; stores that
// share a registry report their sum, though each cache keeps its own
// budget.
func (s *Store) Counters() map[string]int64 { return obs.Union(s.ctr, s.cache.gauge) }

// SealedSeq is the store's durable watermark: the highest sequence number
// in a sealed segment, 0 when nothing is sealed. A record at or below it
// is on disk (or retention has expired it); one above it lives only in
// the memtable and dies with the process. It never decreases — not across
// flush, compaction, retention sweeps or reopen — because a retention
// sweep never removes the record that carries it, and for the same reason
// a sealed sequence number is never handed out twice.
func (s *Store) SealedSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealedSeqLocked()
}

// sealedSeqLocked reads the watermark off the last segment: segments are
// sorted by MinSeq and their ranges are disjoint.
func (s *Store) sealedSeqLocked() uint64 {
	if n := len(s.segs); n > 0 {
		return s.segs[n-1].meta.MaxSeq
	}
	return 0
}

// SegmentCount reports how many sealed segments the store holds.
func (s *Store) SegmentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}

// MemtableLen reports how many records await the next flush.
func (s *Store) MemtableLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mem)
}
