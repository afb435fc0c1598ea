package store

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"slices"
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

// covers reports whether every record a segment with this index holds
// matches the filter: the tick range lies inside the window, each set
// experiment, country or ASN filter names the segment's only value, and
// no filter the index does not carry is set.
func (m SegmentMeta) covers(f Filter) bool {
	only := func(vals []string, v string) bool { return v == "" || len(vals) == 1 && vals[0] == v }
	return f.Kind == "" && f.Verdict == "" && f.ResolverChain == "" && f.ECS == "" &&
		(f.FromTick <= 0 || m.MinTick >= f.FromTick) && (f.ToTick <= 0 || m.MaxTick <= f.ToTick) &&
		only(m.Experiments, f.Experiment) && only(m.Countries, f.Country) &&
		(f.ASN == 0 || len(m.ASNs) == 1 && m.ASNs[0] == f.ASN)
}

func containsString(sorted []string, s string) bool {
	i := sort.SearchStrings(sorted, s)
	return i < len(sorted) && sorted[i] == s
}

// encodeRecord is a record's one encoding: the payload of its segment
// frame and, byte for byte, its element of a scan page on the wire
// (Item.JSON), as Marshal escapes like the API's Encoder. It runs once
// per record (the first page that takes it, or else its flush): a Record
// decoded from the bytes need not encode back to them (DESIGN.md
// "Results store").
func encodeRecord(r *Record) ([]byte, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return raw, nil
}

// encodeSegment renders a whole segment (meta frame followed by one
// frame per record) as the bytes written to disk, and returns each
// record's frame payload, aliasing the returned buffer. It encodes the
// records have holds no payload for; the buffer is allocated once, at
// its final size, and the segment cache keeps every byte of it.
func encodeSegment(meta SegmentMeta, recs []Record, have ...[]byte) ([]byte, [][]byte, error) {
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	raws := make([][]byte, len(recs))
	copy(raws, have)
	size := framelog.HeaderBytes + len(metaRaw)
	for i := range recs {
		if raws[i] == nil {
			if raws[i], err = encodeRecord(&recs[i]); err != nil {
				return nil, nil, err
			}
		}
		size += framelog.HeaderBytes + len(raws[i])
	}
	buf, err := framelog.AppendFrame(make([]byte, 0, size), metaRaw)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for i, raw := range raws {
		if buf, err = framelog.AppendFrame(buf, raw); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		raws[i] = buf[len(buf)-len(raw):] // the copy in buf, which no longer moves
	}
	return buf, raws, nil
}

// parseSegment decodes a segment byte stream tolerantly: it stops at the
// first short, corrupt, undecodable, or out-of-order frame and returns
// whatever decoded cleanly before it — the segment-level equivalent of
// the journal's torn-tail truncation. It never panics and never fails: a
// stream whose meta frame is already bad yields (zero meta, no records,
// torn=true). torn reports whether any records were lost: the stream
// ended at a bad frame, or it ended cleanly but short of the count the
// meta frame promised (a truncation that happens to land on a frame
// boundary). Beside each record it accepts it keeps the frame payload
// the record was decoded from, aliasing data; a frame it refuses
// contributes neither.
func parseSegment(data []byte) (meta SegmentMeta, d decoded, torn bool) {
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
		if n := len(d.recs); n > 0 && rec.Seq <= d.recs[n-1].Seq {
			return false
		}
		d.recs = append(d.recs, rec)
		d.raws = append(d.raws, payload)
		return true
	})
	if !haveMeta {
		return SegmentMeta{}, decoded{}, true // a segment without a meta frame is corrupt
	}
	d.keys = summarize(d.recs)
	return meta, d, torn || len(d.recs) < meta.Frames
}

// decoded is a run of records as the read paths see it: each record and
// the payload that encodes it. A sealed disk run's raws alias one
// buffer — the file image a cold load read, or the one a flush or
// compaction wrote — which lives as long as any of them is referenced;
// the memtable's raws[i] is nil until a page takes recs[i]
// (keepEncodings), and a dir-less store's segments have none. keys is
// the run's key summary (summarize). A sealed run is immutable once
// built.
type decoded struct {
	recs []Record
	raws [][]byte
	keys []uint64
}

// raw is recs[i]'s payload, nil where the run has none for it.
func (d *decoded) raw(i int) []byte {
	if d.raws == nil {
		return nil
	}
	return d.raws[i]
}

// keyHash is the 64-bit hash of a dedup key that key summaries hold. Its
// seed is drawn per process, so a summary lives in memory only; a hash
// decides which records go through a read's exact dedup set, never what
// the read returns.
var keyHash = func(experiment, task string) uint64 {
	var h maphash.Hash
	h.SetSeed(keySeed)
	h.WriteString(experiment)
	h.WriteByte(0)
	h.WriteString(task)
	return h.Sum64()
}

var keySeed = maphash.MakeSeed()

// summarize is a run's key summary: the keyHash of every record, sorted.
func summarize(recs []Record) []uint64 {
	keys := make([]uint64, len(recs))
	for i := range recs {
		keys[i] = keyHash(recs[i].Experiment, recs[i].TaskID)
	}
	slices.Sort(keys)
	return keys
}

// segment is one immutable sealed run of records. Disk segments hold
// only their sparse index here; their records are decoded on first use
// and kept in the store's segment cache (cache.go) until evicted. Memory
// segments (dir-less stores) own their records and summary.
type segment struct {
	id   uint64
	meta SegmentMeta
	path string  // "" for memory segments
	mem  decoded // zero for disk segments
}

// load returns a sealed segment's records for reading only: a memory
// segment's own, a disk segment's cached decode, or a fresh read whose
// result is cached. Every decode is tolerant — a segment damaged after
// it was sealed yields its valid prefix — and runs all of parseSegment's
// checks. Callers hold s.mu, so the segment cannot be deleted (and its
// cache entry dropped) underneath them.
func (s *Store) load(sg *segment) (decoded, error) {
	if sg.path == "" {
		return sg.mem, nil
	}
	if d, ok := s.cache.get(sg.id); ok {
		return d, nil
	}
	raw, err := os.ReadFile(sg.path)
	if err != nil {
		return decoded{}, fmt.Errorf("store: reading %s: %w", sg.path, err)
	}
	_, d, torn := parseSegment(raw)
	if torn {
		s.ctr.Inc("segments_truncated_read")
	}
	return s.cache.put(sg.id, d), nil
}

// segName renders a segment file name from its id.
func segName(id uint64) string { return fmt.Sprintf("seg-%016x.seg", id) }

// writeSegmentFile durably and atomically writes d as a sealed segment
// and returns, beside its path, the records with the payloads just
// written for them — what the segment cache is seeded with, so a
// segment's records are not encoded again while it lives. A crash before
// the rename leaves only a *.tmp stray that Open deletes.
func writeSegmentFile(dir string, id uint64, meta SegmentMeta, d decoded) (string, decoded, error) {
	buf, raws, err := encodeSegment(meta, d.recs, d.raws...)
	if err != nil {
		return "", decoded{}, err
	}
	path := filepath.Join(dir, segName(id))
	if err := framelog.WriteFileAtomic(path, buf); err != nil {
		return "", decoded{}, fmt.Errorf("store: %w", err)
	}
	return path, decoded{recs: d.recs, raws: raws}, nil
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
