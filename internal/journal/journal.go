// Package journal is the controller's durability layer: an append-only,
// length-prefixed, checksummed write-ahead log of control-plane
// mutations plus periodic compacted snapshots of full controller state.
// Pure stdlib.
//
// # On-disk layout
//
// A journal directory holds at most two live files:
//
//	journal.log    frame stream: one frame per appended record
//	snapshot.json  the latest full-state snapshot (atomic via tmp+rename)
//
// Each frame is
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// where the payload is the JSON encoding of a Record. Records carry a
// strictly increasing sequence number; a snapshot stores the sequence
// number it covers, so records with Seq <= Snapshot.Seq are skipped at
// replay (they are the window between "snapshot renamed" and "journal
// truncated" that a crash can leave behind).
//
// # Torn tails
//
// A crash mid-append can leave a torn frame at the end of journal.log.
// Readers stop at the first frame that is short, fails its checksum,
// does not decode, or breaks sequence monotonicity; Open then truncates
// the file back to the last good frame so new appends extend a valid
// stream. Because Append syncs before returning, a torn tail can only
// ever be a record that was never acknowledged.
//
// # Fail-stop
//
// A write or sync that fails leaves the file in a state this process
// cannot know (the frame may be whole, torn, or absent on disk), so the
// Log stops: that call and every later Append or WriteSnapshot return the
// same error until the directory is reopened, which re-reads what
// actually survived. Nothing is rolled back and no sequence number is
// ever written twice — a second frame with a reused Seq would read as a
// torn tail and take every acknowledged record after it along.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Record is one journaled controller mutation.
type Record struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// MaxRecordBytes bounds a single frame payload. A length prefix larger
// than this is treated as corruption rather than honored with a giant
// allocation.
const MaxRecordBytes = 1 << 26 // 64 MiB

const (
	logName      = "journal.log"
	snapName     = "snapshot.json"
	snapTempName = "snapshot.json.tmp"
	frameHeader  = 8 // 4-byte length + 4-byte CRC
)

// Snapshot is a durable full-state capture. Seq is the last journal
// sequence number the state includes; State is opaque to this package.
type Snapshot struct {
	Seq   uint64          `json:"seq"`
	CRC   uint32          `json:"crc"`
	State json.RawMessage `json:"state"`
}

// ReadAll decodes frames from r until EOF or the first bad frame. It
// never fails: it returns the records decoded before the stream went
// bad, how many bytes of r they span, and whether the stream ended with
// a torn or corrupt tail (true) rather than a clean EOF (false). A bad
// frame is one with a short header, a short payload, an oversized
// length prefix, a checksum mismatch, an undecodable payload, an empty
// Kind, or a sequence number that does not strictly increase.
func ReadAll(r io.Reader) (recs []Record, goodBytes int64, torn bool) {
	var prevSeq uint64
	br := newByteCounter(r)
	for {
		start := br.n
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// io.EOF at a frame boundary is the clean end of the stream.
			return recs, start, err != io.EOF
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecordBytes {
			return recs, start, true
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, start, true
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, start, true
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Kind == "" {
			return recs, start, true
		}
		if len(recs) > 0 && rec.Seq <= prevSeq {
			return recs, start, true
		}
		prevSeq = rec.Seq
		recs = append(recs, rec)
	}
}

// byteCounter counts bytes consumed from the underlying reader.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// EncodeFrame renders one record as a wire frame (length | CRC | JSON).
func EncodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds limit", len(payload))
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// Log is an open journal directory, ready for appends. It is not safe
// for concurrent use; the controller serializes access under its own
// lock.
type Log struct {
	dir string
	f   *os.File
	seq uint64 // last sequence number assigned (snapshot or record)
	// failed is the sticky error of the first failed write or sync.
	failed error

	// WrapSync, when set, is invoked by Append in place of calling the
	// file sync directly; the wrapper must call sync exactly once and
	// return its error. The controller uses it to time and trace fsync
	// latency without this package reading the clock. Like every other
	// Log method it runs under the caller's serialization.
	WrapSync func(sync func() error) error

	// Recovery view, filled by Open:

	// Snap is the latest durable snapshot, nil when none exists.
	Snap *Snapshot
	// Records are the valid journal records found at Open, in order.
	// Records with Seq <= Snap.Seq are already part of the snapshot.
	Records []Record
	// TornTail reports whether Open found (and truncated away) a torn
	// or corrupt tail after the last valid record.
	TornTail bool
}

// Open opens (creating if needed) a journal directory, loads the latest
// snapshot and all valid journal records, truncates any torn tail in
// place, and positions the log for appending.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &Log{dir: dir}

	snap, err := loadSnapshot(filepath.Join(dir, snapName))
	if err != nil {
		return nil, err
	}
	l.Snap = snap
	if snap != nil {
		l.seq = snap.Seq
	}

	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	recs, good, torn := ReadAll(bytes.NewReader(raw))
	l.Records = recs
	l.TornTail = torn
	if len(recs) > 0 {
		if last := recs[len(recs)-1].Seq; last > l.seq {
			l.seq = last
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if torn {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	l.f = f
	return l, nil
}

// Seq returns the last sequence number assigned.
func (l *Log) Seq() uint64 { return l.seq }

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Append journals one mutation: it assigns the next sequence number,
// writes the frame, and syncs to stable storage before returning, so a
// successful Append may be acknowledged to clients. A failed write or
// sync fail-stops the log (see the package comment).
func (l *Log) Append(kind string, data any) (uint64, error) {
	if l.f == nil {
		return 0, fmt.Errorf("journal: log is closed")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	raw, err := json.Marshal(data)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	frame, err := EncodeFrame(Record{Seq: l.seq + 1, Kind: kind, Data: raw})
	if err != nil {
		return 0, err
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, l.fail(err)
	}
	sync := l.f.Sync
	if l.WrapSync != nil {
		err = l.WrapSync(sync)
	} else {
		err = sync()
	}
	if err != nil {
		return 0, l.fail(err)
	}
	l.seq++
	return l.seq, nil
}

// fail stops the log at its first failed write or sync.
func (l *Log) fail(err error) error {
	l.failed = fmt.Errorf("journal: log stopped until reopened: %w", err)
	return l.failed
}

// WriteSnapshot durably captures full state covering every record
// appended so far, then compacts the journal. Ordering makes each step
// crash-safe: the snapshot is written to a temp file, synced, and
// renamed over the previous one before journal.log is truncated; a
// crash in between leaves records with Seq <= Snapshot.Seq in the log,
// which replay skips.
func (l *Log) WriteSnapshot(state any) error {
	if l.f == nil {
		return fmt.Errorf("journal: log is closed")
	}
	if l.failed != nil {
		return l.failed
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	snap := Snapshot{Seq: l.seq, CRC: crc32.ChecksumIEEE(raw), State: raw}
	buf, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	tmp := filepath.Join(l.dir, snapTempName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(l.dir)
	// Snapshot is durable; the journal records it covers can go.
	if err := l.f.Truncate(0); err != nil {
		return l.fail(err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.Snap = &snap
	return nil
}

// Close closes the journal file. It does not snapshot; callers that
// want a final compacted state call WriteSnapshot first.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// loadSnapshot reads and verifies the snapshot file; a missing file is
// (nil, nil). A snapshot that does not decode or fails its checksum is
// an error: unlike a torn journal tail it cannot be safely skipped.
func loadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("journal: corrupt snapshot %s: %w", path, err)
	}
	if crc32.ChecksumIEEE(snap.State) != snap.CRC {
		return nil, fmt.Errorf("journal: snapshot %s failed checksum", path)
	}
	return &snap, nil
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
