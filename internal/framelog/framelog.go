// Package framelog is the observatory's one durable-file primitive: the
// frame codec, the append-only log and the whole-file helpers that the
// controller journal (internal/journal), the probe spool (internal/spool)
// and the results store's segments (internal/store) are built on. Every
// file those three create, truncate, rename or fsync goes through this
// file. Pure stdlib.
//
// # Frames
//
// A durable file is a stream of frames:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// The payload is opaque here; each owner decides what a valid one is. A
// frame is bad when its header is short, its length is zero or above
// MaxPayload, its payload is short, or the checksum does not match.
//
// # Torn tails
//
// A crash mid-append can leave a partial frame at the end of a log. Open
// walks the file once, checking each frame's length and checksum, hands
// the good frames' payloads to the owner in one call, and truncates
// whatever follows the leading ones the owner accepts, so appends extend
// a valid stream. The walk decodes nothing: what a payload means, and
// how many cores it takes to find out, is the owner's business. Owners
// sync before they acknowledge, so a torn tail is only ever data nobody
// was told is safe.
//
// # Atomic replace
//
// A file that is written whole (a snapshot, a sealed segment, a
// compacted log) goes to path.tmp, is fsynced, renamed over path, and
// the directory is fsynced: readers see the old content or the new,
// never a mix. A crash before the rename leaves a stray path.tmp that
// is never read back — the next write truncates it, and owners that
// list their directory delete it at open.
//
// # Fail-stop
//
// A write or sync that fails leaves the file in a state this process
// cannot know (the frame may be whole, torn or absent on disk), so the
// Log stops: that call and every later Write, Sync and Replace return
// the same error, which wraps ErrStopped, until the file is reopened and
// what actually survived is re-read. Writing on would put frames behind
// a possibly torn one, and the next Open would truncate them —
// acknowledged — away with it.
package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// HeaderBytes is the size of a frame header: length plus CRC.
const HeaderBytes = 8

// MaxPayload bounds a single frame payload. A length prefix larger than
// this is corruption, not a reason for a giant allocation.
const MaxPayload = 1 << 26 // 64 MiB

// ErrStopped is wrapped by the sticky error of a Log whose write, sync
// or replace failed. The only way forward is to reopen the file.
var ErrStopped = errors.New("log stopped until reopened")

var errClosed = errors.New("log is closed")

// AppendFrame appends payload to buf as one frame.
func AppendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) == 0 || len(payload) > MaxPayload {
		return buf, fmt.Errorf("frame payload of %d bytes out of range", len(payload))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// payloadLen reads the length prefix of the frame at the front of data;
// ok is false when the header is short or the length out of range.
func payloadLen(data []byte) (n int, ok bool) {
	if len(data) < HeaderBytes {
		return 0, false
	}
	length := binary.LittleEndian.Uint32(data)
	return int(length), length != 0 && length <= MaxPayload
}

// Next decodes the frame at the front of data in place: payload and rest
// alias data. ok is false at the end of data and at a bad frame; the two
// differ in whether data was empty.
func Next(data []byte) (payload, rest []byte, ok bool) {
	n, ok := payloadLen(data)
	if !ok || len(data)-HeaderBytes < n {
		return nil, nil, false
	}
	payload = data[HeaderBytes : HeaderBytes+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, nil, false
	}
	return payload, data[HeaderBytes+n:], true
}

// Scan hands each frame's payload to accept, in order, until data ends,
// a frame is bad, or accept returns false. good is how many leading
// bytes of data hold accepted frames; torn reports that something
// follows them.
func Scan(data []byte, accept func(payload []byte) bool) (good int64, torn bool) {
	rest := data
	for {
		payload, next, ok := Next(rest)
		if !ok || !accept(payload) {
			return int64(len(data) - len(rest)), len(rest) > 0
		}
		rest = next
	}
}

// Frames returns the payloads of the good frames at the front of data,
// in order and aliasing data; the walk ends at the end of data or at the
// first bad frame.
func Frames(data []byte) (payloads [][]byte) {
	Scan(data, func(payload []byte) bool {
		payloads = append(payloads, payload)
		return true
	})
	return payloads
}

// Span is the number of bytes the frames holding payloads occupy.
func Span(payloads [][]byte) (n int64) {
	for _, p := range payloads {
		n += int64(HeaderBytes + len(p))
	}
	return n
}

// ReadFirst reads and verifies only the first frame of the file at path,
// for owners that keep an index there.
func ReadFirst(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, HeaderBytes)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, errors.New("short frame header")
	}
	n, ok := payloadLen(buf)
	if !ok {
		return nil, errors.New("bad frame length")
	}
	buf = append(buf, make([]byte, n)...)
	if _, err := io.ReadFull(f, buf[HeaderBytes:]); err != nil {
		return nil, errors.New("short frame")
	}
	payload, _, ok := Next(buf)
	if !ok {
		return nil, errors.New("frame failed checksum")
	}
	return payload, nil
}

// Log is an append-only frame file open for writing. It is not safe for
// concurrent use; owners serialize access under their own lock.
type Log struct {
	path string
	f    *os.File
	// err is what every later call returns: the first failure (wrapping
	// ErrStopped), or errClosed after Close.
	err error

	// WrapSync, when set, is invoked by Sync in place of calling the file
	// sync directly; the wrapper must call sync exactly once and return
	// its error. The controller uses it to time and trace fsync latency
	// without the durable-file packages reading the clock.
	WrapSync func(sync func() error) error
}

// Open opens (creating if needed) the log at path, hands the payloads of
// its good frames (see Frames; they alias one read of the file) to
// accept, which returns how many leading ones it takes, truncates
// whatever follows those, and positions the file for appending. torn
// reports that something was truncated.
func Open(path string, accept func(payloads [][]byte) int) (l *Log, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, err
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	payloads := Frames(data)
	good := Span(payloads[:accept(payloads)])
	torn = good < int64(len(data))
	if torn {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, false, err
	}
	return &Log{path: path, f: f}, torn, nil
}

// readAll reads the whole of f, from its start, into one buffer of the
// file's size.
func readAll(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	_, err = io.ReadFull(f, data)
	return data, err
}

// Err returns the error the next Write, Sync or Replace would return
// without doing anything: nil while the log is open and healthy.
func (l *Log) Err() error { return l.err }

// stop makes err the log's sticky failure.
func (l *Log) stop(err error) error {
	l.err = fmt.Errorf("%w: %w", ErrStopped, err)
	return l.err
}

// Write appends p, which the caller built with AppendFrame. Nothing is
// durable until Sync returns.
func (l *Log) Write(p []byte) error {
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(p); err != nil {
		return l.stop(err)
	}
	return nil
}

// Sync flushes everything written so far to stable storage.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	var err error
	if l.WrapSync != nil {
		err = l.WrapSync(l.f.Sync)
	} else {
		err = l.f.Sync()
	}
	if err != nil {
		return l.stop(err)
	}
	return nil
}

// Replace swaps the log's whole content for content (frames the caller
// built) and positions it for appending after them. Non-empty content is
// replaced atomically; empty content truncates the file in place, which
// cannot tear.
func (l *Log) Replace(content []byte) error {
	if l.err != nil {
		return l.err
	}
	if len(content) == 0 {
		err := l.f.Truncate(0)
		if err == nil {
			_, err = l.f.Seek(0, io.SeekStart)
		}
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			return l.stop(err)
		}
		return nil
	}
	if err := WriteFileAtomic(l.path, content); err != nil {
		return l.stop(err)
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err == nil {
		if _, err = f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return l.stop(err)
	}
	l.f.Close() // the renamed-over file; nothing of it is live
	l.f = f
	return nil
}

// Close closes the file; later calls return an error. Closing twice is
// harmless.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f, l.err = nil, errClosed
	return err
}

// createSynced creates (or truncates) path, fills it from r, and fsyncs
// it.
func createSynced(path string, r io.Reader) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, r)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic makes content the whole of the file at path: it is
// written to path.tmp, fsynced, renamed over path, and the directory is
// fsynced. On failure path is untouched.
func WriteFileAtomic(path string, content []byte) error {
	tmp := path + ".tmp"
	if err := createSynced(tmp, bytes.NewReader(content)); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// CopyFileSync copies src to dst and fsyncs dst. A missing src returns
// the raw os.IsNotExist error for the caller to skip.
func CopyFileSync(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return createSynced(dst, in)
}

// SyncDir fsyncs a directory so a rename or create inside it survives
// power loss. Errors are ignored: not every filesystem supports
// directory fsync, and the rename itself already happened.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
