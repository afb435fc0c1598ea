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
// # Allocated tail
//
// An open Log owns more file than it has frames: a Write that does not
// fit writes its frame plus growChunk zeros behind it in one call, so
// the Sync that covers the frame also commits the file's new size, and
// the appends that land in those zeros change no file metadata. A zero
// length is a bad frame, so the walk stops where the zeros start; Open
// keeps an all-zero remainder as the log's allocation, not a torn tail,
// and Close truncates it away (DESIGN.md, "Durable files").
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

// growChunk is how many zero bytes a Write that does not fit in the
// log's allocation puts behind its frame: about 300 sync records.
const growChunk = 64 << 10

var zeros [growChunk]byte

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
	// Frames occupy [0, end); [end, alloc) is zeros the file already
	// owns, which appends overwrite.
	end, alloc int64
	// err is what every later call returns: the first failure (wrapping
	// ErrStopped), or errClosed after Close.
	err error

	// WrapSync, when set, is invoked in place of every direct file sync
	// (Sync's, and Replace's when it empties the log); the wrapper must
	// call sync exactly once and return its error. The controller uses it
	// to time and trace fsync latency without the durable-file packages
	// reading the clock.
	WrapSync func(sync func() error) error
	// OnGrow, when set, is called after each Write that extended the
	// file: the next Sync pays for a size change, the others do not.
	OnGrow func()
}

// Open opens (creating if needed) the log at path, hands the payloads of
// its good frames (see Frames; they alias one read of the file) to
// accept, which returns how many leading ones it takes, and appends
// after those. What follows them is kept as the log's allocation when it
// is all zeros, and is otherwise a torn tail: truncated, and reported by
// torn. A file Open created has its directory entry fsynced.
func Open(path string, accept func(payloads [][]byte) int) (l *Log, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err == nil {
			SyncDir(filepath.Dir(path))
		}
	}
	if err != nil {
		return nil, false, err
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	payloads := Frames(data)
	l = &Log{path: path, f: f, alloc: int64(len(data))}
	l.end = Span(payloads[:accept(payloads)])
	if torn = len(bytes.TrimLeft(data[l.end:], "\x00")) > 0; torn {
		if err := f.Truncate(l.end); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("truncating torn tail: %w", err)
		}
		l.alloc = l.end
	}
	return l, torn, nil
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
// durable until Sync returns. A p that does not fit in the allocation is
// written with growChunk zeros behind it: the file grows once per chunk.
func (l *Log) Write(p []byte) error {
	if l.err != nil {
		return l.err
	}
	n := int64(len(p))
	grow := l.end+n > l.alloc
	if grow {
		p = append(p[:n:n], zeros[:]...)
	}
	if _, err := l.f.WriteAt(p, l.end); err != nil {
		return l.stop(err)
	}
	l.end += n
	if grow {
		l.alloc = l.end + growChunk
		if l.OnGrow != nil {
			l.OnGrow()
		}
	}
	return nil
}

// Sync flushes everything written so far to stable storage.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	return l.sync()
}

// sync is the one place a Log's file is fsynced, so WrapSync sees every
// sync; a failure stops the log.
func (l *Log) sync() error {
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
		if err := l.f.Truncate(0); err != nil {
			return l.stop(err)
		}
		l.end, l.alloc = 0, 0
		return l.sync()
	}
	if err := WriteFileAtomic(l.path, content); err != nil {
		return l.stop(err)
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return l.stop(err)
	}
	l.f.Close() // the renamed-over file; nothing of it is live
	l.f = f
	l.end, l.alloc = int64(len(content)), int64(len(content))
	return nil
}

// Close cuts the allocated tail off a healthy log (a cleanly closed file
// is exactly its frames; a stopped log's is left for the next Open) and
// closes the file; later calls return an error. Closing twice is harmless.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.err == nil && l.alloc > l.end {
		err = l.f.Truncate(l.end)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
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

// CopyDir copies the regular files of srcDir that keep accepts into
// dstDir, fsyncing each and then dstDir; a missing srcDir copies nothing.
func CopyDir(srcDir, dstDir string, keep func(name string) bool) error {
	ents, err := os.ReadDir(srcDir)
	if err != nil && !os.IsNotExist(err) {
		return err
	} else if err = os.MkdirAll(dstDir, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if name := e.Name(); e.Type().IsRegular() && keep(name) {
			if err := CopyFileSync(filepath.Join(srcDir, name), filepath.Join(dstDir, name)); err != nil {
				return err
			}
		}
	}
	SyncDir(dstDir)
	return nil
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
