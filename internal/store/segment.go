package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/afrinet/observatory/internal/topology"
)

// The on-disk segment format mirrors the journal's framing so the same
// torn-tail reasoning applies:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// Frame 0 of a segment is the JSON encoding of SegmentMeta — the
// segment's sparse index. Every following frame is the JSON encoding of
// one Record, in strictly increasing Seq order. Segments are written
// whole (tmp + fsync + rename + dir-fsync) and never modified after the
// rename, so a well-formed segment can only be damaged by external
// corruption; readers stop at the first bad frame and serve the valid
// prefix rather than failing.

// MaxFrameBytes bounds a single frame payload. A length prefix larger
// than this is treated as corruption rather than honored with a giant
// allocation.
const MaxFrameBytes = 1 << 26 // 64 MiB

const frameHeader = 8 // 4-byte length + 4-byte CRC

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

// appendFrame renders one JSON payload as a wire frame onto buf.
func appendFrame(buf []byte, payload []byte) ([]byte, error) {
	if len(payload) == 0 || len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("store: frame payload of %d bytes out of range", len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// EncodeSegment renders a whole segment (meta frame followed by one
// frame per record) as the bytes written to disk.
func EncodeSegment(meta SegmentMeta, recs []Record) ([]byte, error) {
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	buf, err := appendFrame(nil, metaRaw)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		raw, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if buf, err = appendFrame(buf, raw); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// nextFrame decodes one frame from data, returning the payload and the
// remaining bytes. ok is false at a clean end (no bytes left) and on any
// bad frame; bad distinguishes the two.
func nextFrame(data []byte) (payload, rest []byte, ok, bad bool) {
	if len(data) == 0 {
		return nil, nil, false, false
	}
	if len(data) < frameHeader {
		return nil, nil, false, true
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if length == 0 || length > MaxFrameBytes || uint64(len(data)-frameHeader) < uint64(length) {
		return nil, nil, false, true
	}
	payload = data[frameHeader : frameHeader+int(length)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, false, true
	}
	return payload, data[frameHeader+int(length):], true, false
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
	payload, rest, ok, _ := nextFrame(data)
	if !ok {
		return SegmentMeta{}, nil, true // a segment without a meta frame is corrupt
	}
	if err := json.Unmarshal(payload, &meta); err != nil {
		return SegmentMeta{}, nil, true
	}
	data = rest
	var prevSeq uint64
	for {
		var bad bool
		payload, rest, ok, bad = nextFrame(data)
		if !ok {
			return meta, recs, bad || len(recs) < meta.Frames
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return meta, recs, true
		}
		if len(recs) > 0 && rec.Seq <= prevSeq {
			return meta, recs, true
		}
		prevSeq = rec.Seq
		recs = append(recs, rec)
		data = rest
	}
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

// writeSegmentFile durably writes a sealed segment: encode, write to a
// temp file, fsync, rename into place, fsync the directory. A crash
// before the rename leaves only a *.tmp stray that Open deletes.
func writeSegmentFile(dir string, id uint64, meta SegmentMeta, recs []Record) (string, error) {
	buf, err := EncodeSegment(meta, recs)
	if err != nil {
		return "", err
	}
	final := filepath.Join(dir, segName(id))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return "", fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	syncDir(dir)
	return final, nil
}

// readSegmentMeta reads just the sparse index of a sealed segment file.
// A file whose meta frame does not decode is reported unreadable rather
// than failing Open.
func readSegmentMeta(path string) (SegmentMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return SegmentMeta{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var hdr [frameHeader]byte
	if _, err := readFull(f, hdr[:]); err != nil {
		return SegmentMeta{}, fmt.Errorf("store: %s: short meta frame", path)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > MaxFrameBytes {
		return SegmentMeta{}, fmt.Errorf("store: %s: bad meta frame length", path)
	}
	payload := make([]byte, length)
	if _, err := readFull(f, payload); err != nil {
		return SegmentMeta{}, fmt.Errorf("store: %s: short meta frame", path)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return SegmentMeta{}, fmt.Errorf("store: %s: meta frame failed checksum", path)
	}
	var meta SegmentMeta
	if err := json.Unmarshal(payload, &meta); err != nil {
		return SegmentMeta{}, fmt.Errorf("store: %s: %w", path, err)
	}
	return meta, nil
}

func readFull(f *os.File, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := f.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// syncDir fsyncs a directory so a rename survives power loss. Errors
// are ignored: not every filesystem supports directory fsync, and the
// rename itself already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
