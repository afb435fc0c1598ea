package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/afrinet/observatory/internal/framelog"
)

// Snapshot is a durable full-state capture as Open read it. Seq is the
// last journal sequence number the state includes and Bytes the size of
// the file; what the state is, is the owner's.
//
// Head is the owner's header and Frames the payloads of the frames behind
// the header frame in file order; both alias one read of snapshot.log.
type Snapshot struct {
	Seq    uint64
	Bytes  int64
	Head   json.RawMessage
	Frames [][]byte
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
// atomically replaces the previous one, then journal.log is truncated; a
// crash in between leaves records with Seq <= Snapshot.Seq in the log,
// which replay skips.
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
	return int64(len(buf)), l.Replace(nil)
}

// loadSnapshot reads dir's snapshot.log, or returns (nil, nil) when there
// is none. A snapshot that does not verify is an error: unlike a torn
// journal tail it cannot be safely skipped, and no part of it is returned.
func loadSnapshot(dir string) (*Snapshot, error) {
	path := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
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
