// Package journal is the durability layer of both control-plane tiers: an
// append-only write-ahead log of an owner's mutations plus compacted
// snapshots of its full state, kept by one durable loop, the Machine, for
// the controller (internal/core) and the shard coordinator
// (internal/federation) alike. Frames, torn-tail truncation, atomic file
// replacement and the fail-stop rule are internal/framelog's; what is the
// journal's own is below.
//
// # On-disk layout
//
// A journal directory holds at most two live files, both frame streams
// (internal/framelog):
//
//	journal.log   one frame per appended record
//	snapshot.log  the latest full-state snapshot, replaced atomically
//
// A journal frame's payload is the JSON encoding of a Record. Records
// carry a strictly increasing sequence number; a snapshot stores the
// sequence number it covers, so records with Seq <= Snapshot.Seq are
// skipped at replay (they are the window between "snapshot renamed" and
// "journal truncated" that a crash can leave behind).
//
// A snapshot's first frame is {"seq":N,"frames":M,"head":H}: the sequence
// number, how many frames follow, and the owner's header; the M frames
// behind it are the owner's. The file is written whole, so it has no torn
// tail to forgive: a bad frame, bytes behind the last frame or a count
// other than M fails Open. A directory from before the snapshot was framed
// holds a one-blob snapshot instead: Open refuses it (ErrNeedsUpgrade;
// legacy.go, DESIGN.md "Durable files").
//
// A record that does not decode, has no Kind, or breaks sequence
// monotonicity ends the valid stream like a bad frame does: Open
// truncates from there. Because Append syncs before returning, what is
// truncated was never acknowledged.
//
// # Reading a journal back
//
// Open reads journal.log in stages with one job each: framelog walks the
// file once (lengths, checksums, payload slices); DecodeRecords decodes
// the payloads on every core and one serial pass ends the stream as
// above; the Machine then decodes each record's Data into its owner's
// typed mutation the same way (DecodeOps, through the owner's table of
// Ops) and applies them in journal order. Decode is a pure function of a payload's bytes;
// validity, truncation point and apply order are a serial reader's; the
// worker count changes neither Records nor what is recovered from them
// (DESIGN.md, "Reading the journal back").
//
// # Fail-stop
//
// After a failed write or sync, that call and every later Append or
// WriteSnapshot return the same error until the directory is reopened.
// Nothing is rolled back and no sequence number is ever written twice — a
// second frame with a reused Seq would read as a torn tail and take every
// acknowledged record after it along.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/par"
)

// Record is one journaled mutation.
type Record struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

const (
	logName  = "journal.log"
	snapName = "snapshot.log"
)

// DecodeRecords decodes frame payloads into the records of the valid
// stream they start with: the stream ends before the first payload that
// does not decode, has an empty Kind, or whose sequence number does not
// strictly increase. Payloads are decoded in parallel (par.Workers(0)
// wide) into slots addressed by index and the end is found by one serial
// pass, so the result is what a serial reader returns. A record's Data
// may alias its payload.
func DecodeRecords(payloads [][]byte) []Record {
	recs := par.Map(0, len(payloads), func(i int) Record { return decodeRecord(payloads[i]) })
	n := 0
	for n < len(recs) && recs[n].Kind != "" && (n == 0 || recs[n].Seq > recs[n-1].Seq) {
		n++
	}
	return recs[:n:n]
}

// The record envelope as EncodeFrame writes it: {"seq":N,"kind":"K"},
// with ,"data":D before the closing brace when the record has data.
const (
	recSeqKey  = `{"seq":`
	recKindKey = `,"kind":"`
	recDataKey = `,"data":`
)

// decodeRecord decodes one frame payload, a pure function of its bytes:
// what json.Unmarshal into a Record makes of them, or the zero Record
// when that fails. A valid record has a Kind, so an empty one marks a
// payload that is not a record.
func decodeRecord(payload []byte) Record {
	if rec, ok := cutRecord(payload); ok {
		return rec
	}
	var rec Record
	if json.Unmarshal(payload, &rec) != nil {
		return Record{}
	}
	return rec
}

// cutRecord reads a payload in EncodeFrame's layout without parsing the
// envelope: seq and kind are cut out, and data's bytes are scanned for
// validity and kept in place (no copy). A kind with an escape or a byte
// outside printable ASCII, and any other layout, is !ok with a zero
// Record: the caller's full decode then reads the payload or rejects it.
func cutRecord(payload []byte) (Record, bool) {
	rest, ok := bytes.CutPrefix(payload, []byte(recSeqKey))
	if !ok {
		return Record{}, false
	}
	seq, rest, ok := CutUint(rest, 64)
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(recKindKey))
	}
	if !ok {
		return Record{}, false
	}
	kind, rest, ok := CutString(rest)
	if !ok || len(kind) == 0 {
		return Record{}, false
	}
	rec := Record{Seq: seq, Kind: string(kind)}
	if string(rest) == "}" {
		return rec, true
	}
	data, ok := bytes.CutPrefix(rest, []byte(recDataKey))
	if ok {
		data, ok = bytes.CutSuffix(data, []byte("}"))
	}
	// A value json.Valid passes may carry white space at either end;
	// Unmarshal would trim it, so that is not this layout.
	if !ok || len(data) == 0 || data[0] <= ' ' || data[len(data)-1] <= ' ' || !json.Valid(data) {
		return Record{}, false
	}
	rec.Data = data
	return rec, true
}

// EncodeFrame renders one record as a wire frame (length | CRC | JSON).
func EncodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return frameOf(payload)
}

// EncodeOp renders the record (seq, kind, data marshalled) as a wire
// frame. The payload is the bytes EncodeFrame writes for that Record,
// assembled around the marshalled data instead of marshalling — scanning
// and copying — it a second time inside its envelope (TestEncodeOp).
func EncodeOp(seq uint64, kind string, data any) ([]byte, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	k, _ := json.Marshal(kind) // a string always marshals
	buf := make([]byte, 0, len(raw)+len(k)+48)
	buf = strconv.AppendUint(append(buf, recSeqKey...), seq, 10)
	buf = append(append(buf, `,"kind":`...), k...)
	buf = append(append(append(buf, recDataKey...), raw...), '}')
	return frameOf(buf)
}

func frameOf(payload []byte) ([]byte, error) {
	frame, err := framelog.AppendFrame(make([]byte, 0, framelog.HeaderBytes+len(payload)), payload)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return frame, nil
}

// Log is an open journal directory, ready for appends. It is not safe
// for concurrent use; its Machine's owner serializes access under its own
// lock. The embedded framelog.Log is journal.log: it carries the
// WrapSync hook, the fail-stop state and Close (which does not snapshot;
// callers that want a final compacted state call WriteSnapshot first).
type Log struct {
	*framelog.Log
	dir string
	seq uint64 // last sequence number assigned (snapshot or record)

	// Recovery view, filled by Open and never updated after it; a Machine
	// drops Snap and Records once it has replayed them.

	// Snap is the latest durable snapshot, nil when none exists. Its Head
	// and Frames alias the bytes read from the file.
	Snap *Snapshot
	// Records are the valid journal records found at Open, in order.
	// Records with Seq <= Snap.Seq are already part of the snapshot. Their
	// Data aliases the bytes read from the file.
	Records []Record
	// TornTail reports whether Open found (and truncated away) a torn
	// or corrupt tail after the last valid record.
	TornTail bool
}

// Open opens (creating if needed) a journal directory, loads the latest
// snapshot and all valid journal records, truncates any torn tail in
// place, and positions the log for appending. A directory holding a
// one-blob snapshot is refused before its files are touched.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := refuseLegacy(dir); err != nil {
		return nil, err
	}
	l := &Log{dir: dir}

	snap, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	l.Snap = snap
	if snap != nil {
		l.seq = snap.Seq
	}

	l.Log, l.TornTail, err = framelog.Open(filepath.Join(dir, logName), func(payloads [][]byte) int {
		l.Records = DecodeRecords(payloads)
		return len(l.Records)
	})
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if n := len(l.Records); n > 0 && l.Records[n-1].Seq > l.seq {
		l.seq = l.Records[n-1].Seq
	}
	return l, nil
}

// Seq returns the last sequence number assigned.
func (l *Log) Seq() uint64 { return l.seq }

// Append journals one mutation: it assigns the next sequence number,
// writes the frame, and syncs to stable storage before returning, so a
// successful Append may be acknowledged to clients. A failed write or
// sync fail-stops the log (see the package comment).
func (l *Log) Append(kind string, data any) (uint64, error) {
	frame, err := EncodeOp(l.seq+1, kind, data)
	if err != nil {
		return 0, err
	}
	if err = l.Write(frame); err == nil {
		err = l.Sync()
	}
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	l.seq++
	return l.seq, nil
}
