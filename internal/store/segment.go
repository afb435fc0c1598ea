package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/topology"
)

// A segment file is an internal/framelog frame stream. Frame 0 is the
// JSON encoding of SegmentMeta — the segment's sparse index. Every
// following frame is the JSON encoding of one Record, in strictly
// increasing Seq order. Segments are written whole and atomically
// (framelog.WriteFileAtomic) and never modified afterwards, so a
// well-formed segment can only be damaged by external corruption; readers
// stop at the first bad frame and serve the valid prefix rather than
// failing.

// MaxFrameBytes bounds a single frame payload.
const MaxFrameBytes = framelog.MaxPayload

// SegmentMeta is the per-segment sparse index: the seq and tick ranges
// the segment spans plus the distinct experiments, countries, and ASNs
// it contains. Queries prune whole segments on it before reading any
// record frame.
type SegmentMeta struct {
	MinSeq      uint64         `json:"min_seq"`
	MaxSeq      uint64         `json:"max_seq"`
	MinTick     int64          `json:"min_tick"`
	MaxTick     int64          `json:"max_tick"`
	Frames      int            `json:"frames"`
	Experiments []string       `json:"experiments,omitempty"`
	Countries   []string       `json:"countries,omitempty"`
	ASNs        []topology.ASN `json:"asns,omitempty"`
}

// buildMeta derives a segment's sparse index from its records.
func buildMeta(recs []Record) SegmentMeta {
	m := SegmentMeta{Frames: len(recs)}
	exps := make(map[string]bool)
	ccs := make(map[string]bool)
	asns := make(map[topology.ASN]bool)
	for i, r := range recs {
		if i == 0 {
			m.MinSeq, m.MaxSeq = r.Seq, r.Seq
			m.MinTick, m.MaxTick = r.Tick, r.Tick
		}
		if r.Seq < m.MinSeq {
			m.MinSeq = r.Seq
		}
		if r.Seq > m.MaxSeq {
			m.MaxSeq = r.Seq
		}
		if r.Tick < m.MinTick {
			m.MinTick = r.Tick
		}
		if r.Tick > m.MaxTick {
			m.MaxTick = r.Tick
		}
		exps[r.Experiment] = true
		ccs[r.Country] = true
		asns[r.ASN] = true
	}
	for e := range exps {
		m.Experiments = append(m.Experiments, e)
	}
	sort.Strings(m.Experiments)
	for c := range ccs {
		m.Countries = append(m.Countries, c)
	}
	sort.Strings(m.Countries)
	for a := range asns {
		m.ASNs = append(m.ASNs, a)
	}
	sort.Slice(m.ASNs, func(i, j int) bool { return m.ASNs[i] < m.ASNs[j] })
	return m
}

// mayMatch reports whether a segment with this index can hold records
// matching the filter. False prunes the segment without reading it.
func (m SegmentMeta) mayMatch(f Filter) bool {
	if f.FromTick > 0 && m.MaxTick < f.FromTick {
		return false
	}
	if f.ToTick > 0 && m.MinTick > f.ToTick {
		return false
	}
	if f.Experiment != "" && !containsString(m.Experiments, f.Experiment) {
		return false
	}
	if f.Country != "" && !containsString(m.Countries, f.Country) {
		return false
	}
	if f.ASN != 0 {
		i := sort.Search(len(m.ASNs), func(i int) bool { return m.ASNs[i] >= f.ASN })
		if i >= len(m.ASNs) || m.ASNs[i] != f.ASN {
			return false
		}
	}
	return true
}

func containsString(sorted []string, s string) bool {
	i := sort.SearchStrings(sorted, s)
	return i < len(sorted) && sorted[i] == s
}

// EncodeSegment renders a whole segment (meta frame followed by one
// frame per record) as the bytes written to disk.
func EncodeSegment(meta SegmentMeta, recs []Record) ([]byte, error) {
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	buf, err := framelog.AppendFrame(nil, metaRaw)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for i := range recs {
		raw, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if buf, err = framelog.AppendFrame(buf, raw); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return buf, nil
}

// ParseSegment decodes a segment byte stream tolerantly: it stops at the
// first short, corrupt, undecodable, or out-of-order frame and returns
// whatever decoded cleanly before it — the segment-level equivalent of
// the journal's torn-tail truncation. It never panics and never fails: a
// stream whose meta frame is already bad yields (zero meta, no records,
// torn=true). torn reports whether any records were lost: the stream
// ended at a bad frame, or it ended cleanly but short of the count the
// meta frame promised (a truncation that happens to land on a frame
// boundary).
func ParseSegment(data []byte) (meta SegmentMeta, recs []Record, torn bool) {
	haveMeta := false
	_, torn = framelog.Scan(data, func(payload []byte) bool {
		if !haveMeta {
			haveMeta = json.Unmarshal(payload, &meta) == nil
			return haveMeta
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return false
		}
		if n := len(recs); n > 0 && rec.Seq <= recs[n-1].Seq {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	if !haveMeta {
		return SegmentMeta{}, nil, true // a segment without a meta frame is corrupt
	}
	return meta, recs, torn || len(recs) < meta.Frames
}

// segment is one immutable sealed run of records. Disk segments hold
// only their sparse index here; their records are decoded on first use
// and kept in the store's segment cache (cache.go) until evicted. Memory
// segments (dir-less stores) own their records.
type segment struct {
	id   uint64
	meta SegmentMeta
	path string   // "" for memory segments
	recs []Record // nil for disk segments
}

// load returns a sealed segment's records for reading only: a memory
// segment's own, a disk segment's cached decode, or a fresh read whose
// result is cached. Every decode is tolerant — a segment damaged after
// it was sealed yields its valid prefix — and runs all of ParseSegment's
// checks. Callers hold s.mu, so the segment cannot be deleted (and its
// cache entry dropped) underneath them.
func (s *Store) load(sg *segment) ([]Record, error) {
	if sg.path == "" {
		return sg.recs, nil
	}
	if recs, ok := s.cache.get(sg.id); ok {
		return recs, nil
	}
	raw, err := os.ReadFile(sg.path)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", sg.path, err)
	}
	_, recs, torn := ParseSegment(raw)
	if torn {
		s.ctr.Inc("segments_truncated_read")
	}
	s.cache.put(sg.id, recs)
	return recs, nil
}

// segName renders a segment file name from its id.
func segName(id uint64) string { return fmt.Sprintf("seg-%016x.seg", id) }

// writeSegmentFile durably and atomically writes a sealed segment. A
// crash before the rename leaves only a *.tmp stray that Open deletes.
func writeSegmentFile(dir string, id uint64, meta SegmentMeta, recs []Record) (string, error) {
	buf, err := EncodeSegment(meta, recs)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, segName(id))
	if err := framelog.WriteFileAtomic(path, buf); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return path, nil
}

// readSegmentMeta reads just the sparse index of a sealed segment file.
// A file whose meta frame does not decode is reported unreadable rather
// than failing Open.
func readSegmentMeta(path string) (SegmentMeta, error) {
	var meta SegmentMeta
	payload, err := framelog.ReadFirst(path)
	if err == nil {
		err = json.Unmarshal(payload, &meta)
	}
	if err != nil {
		return SegmentMeta{}, fmt.Errorf("store: %s: meta frame: %w", path, err)
	}
	return meta, nil
}
