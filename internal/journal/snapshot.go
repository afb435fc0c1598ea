package journal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/afrinet/observatory/internal/framelog"
)

// Snapshot is a durable full-state capture as Open read it. Seq is the
// last journal sequence number the state includes and Bytes the size of
// the file; what the state is, is the owner's.
//
// A framed snapshot (snapshot.log) has Head, the owner's header, and
// Frames, the payloads of the frames behind the header frame in file
// order; both alias one read of the file. A legacy one (snapshot.json)
// has State, the whole state as one JSON value, and neither of those.
type Snapshot struct {
	Seq    uint64
	Bytes  int64
	Head   json.RawMessage
	Frames [][]byte
	State  json.RawMessage
}

// snapHeader is the payload of a snapshot.log's first frame. Frames is
// how many frames follow it: the file is replaced atomically, so one that
// holds any other number was damaged after it was written.
type snapHeader struct {
	Seq    uint64          `json:"seq"`
	Frames int             `json:"frames"`
	Head   json.RawMessage `json:"head"`
}

// WriteSnapshot durably captures full state covering every record
// appended so far — head, the owner's header (marshalled here), and
// frames, its payloads — then compacts the journal, and returns the size
// of the file it wrote. Ordering makes each step crash-safe: the snapshot
// atomically replaces the previous one, then a legacy snapshot.json is
// removed, then journal.log is truncated; a crash in between leaves a
// legacy file Open does not read, or records with Seq <= Snapshot.Seq in
// the log, which replay skips.
func (l *Log) WriteSnapshot(head any, frames [][]byte) (int64, error) {
	size, err := l.writeSnapshot(head, frames)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return size, nil
}

func (l *Log) writeSnapshot(head any, frames [][]byte) (int64, error) {
	if err := l.Err(); err != nil {
		return 0, err
	}
	h, err := json.Marshal(head)
	if err != nil {
		return 0, err
	}
	hdr, err := json.Marshal(snapHeader{Seq: l.seq, Frames: len(frames), Head: h})
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, framelog.Span(frames)+int64(framelog.HeaderBytes+len(hdr)))
	for _, p := range append([][]byte{hdr}, frames...) {
		if buf, err = framelog.AppendFrame(buf, p); err != nil {
			return 0, err
		}
	}
	if err := framelog.WriteFileAtomic(filepath.Join(l.dir, snapName), buf); err != nil {
		return 0, err
	}
	// The framed snapshot is durable: a legacy one beside it is never read
	// again, and the journal records it covers can go.
	_ = os.Remove(filepath.Join(l.dir, legacySnapName))
	return int64(len(buf)), l.Replace(nil)
}

// loadSnapshot reads dir's snapshot: snapshot.log, or when there is none
// a legacy snapshot.json (so of a directory holding both — a crash between
// the first framed snapshot's rename and the legacy file's removal — the
// framed one wins), or (nil, nil) when there is neither. A snapshot that
// does not verify is an error: unlike a torn journal tail it cannot be
// safely skipped, and no part of it is returned.
func loadSnapshot(dir string) (*Snapshot, error) {
	path := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return loadLegacySnapshot(filepath.Join(dir, legacySnapName))
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	payloads := framelog.Frames(raw)
	if len(payloads) == 0 || framelog.Span(payloads) != int64(len(raw)) {
		return nil, fmt.Errorf("journal: corrupt snapshot %s: bad frame at byte %d of %d", path, framelog.Span(payloads), len(raw))
	}
	var hdr snapHeader
	if err := json.Unmarshal(payloads[0], &hdr); err != nil {
		return nil, fmt.Errorf("journal: corrupt snapshot %s: header: %w", path, err)
	}
	if hdr.Frames != len(payloads)-1 {
		return nil, fmt.Errorf("journal: corrupt snapshot %s: header counts %d frames, file holds %d", path, hdr.Frames, len(payloads)-1)
	}
	return &Snapshot{Seq: hdr.Seq, Bytes: int64(len(raw)), Head: hdr.Head, Frames: payloads[1:]}, nil
}

// loadLegacySnapshot reads the one-blob file binaries before the framed
// snapshot wrote, {"seq":N,"crc":C,"state":S} with C the CRC-32 (IEEE) of
// S's bytes; nothing writes it any more. A missing file is (nil, nil).
func loadLegacySnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var snap struct {
		Seq   uint64          `json:"seq"`
		CRC   uint32          `json:"crc"`
		State json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("journal: corrupt snapshot %s: %w", path, err)
	}
	if crc32.ChecksumIEEE(snap.State) != snap.CRC {
		return nil, fmt.Errorf("journal: snapshot %s failed checksum", path)
	}
	return &Snapshot{Seq: snap.Seq, Bytes: int64(len(raw)), State: snap.State}, nil
}
