package spool

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
)

func testResult(i int) probes.Result {
	return probes.Result{
		TaskID:     fmt.Sprintf("t%d", i+1),
		Experiment: "exp-1",
		ProbeID:    "kigali-1",
		Kind:       probes.TaskPing,
		OK:         true,
		RTTms:      float64(10 + i),
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Spool {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestAppendPeekAck(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()

	for i := 0; i < 5; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := s.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}

	batch, upTo := s.DrainBatch(3)
	if len(batch) != 3 {
		t.Fatalf("Peek(3) returned %d results", len(batch))
	}
	for i, r := range batch {
		if want := fmt.Sprintf("t%d", i+1); r.TaskID != want {
			t.Fatalf("batch[%d].TaskID = %s, want %s (oldest-first order)", i, r.TaskID, want)
		}
	}
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len after Ack = %d, want 2", got)
	}

	rest, upTo := s.DrainBatch(0)
	if len(rest) != 2 || rest[0].TaskID != "t4" || rest[1].TaskID != "t5" {
		t.Fatalf("remaining batch wrong: %+v", rest)
	}
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len after draining = %d, want 0", got)
	}
	if batch, _ := s.DrainBatch(0); batch != nil {
		t.Fatalf("Peek on empty spool returned %+v", batch)
	}
}

func TestBacklogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Deliver the first two; the ack must be durable too.
	_, upTo := s.DrainBatch(2)
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	// Simulated power cut: no graceful drain, just Close.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Len(); got != 2 {
		t.Fatalf("backlog after reopen = %d, want 2", got)
	}
	batch, _ := s2.DrainBatch(0)
	if batch[0].TaskID != "t3" || batch[1].TaskID != "t4" {
		t.Fatalf("reopened backlog wrong: %+v", batch)
	}
}

// TestTornTailTruncated: a power cut leaves spool.log as the live log had
// it — frames, then the zeros it had allocated — with or without a
// half-written frame in front of the zeros; a closed spool that something
// scribbled behind has no zeros. Garbage is a torn tail (cut and counted),
// the allocation alone is not, and every persisted result comes back.
func TestTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name         string
		closed, tear bool
	}{
		{"garbage at the end of a closed log", true, true},
		{"power cut between appends", false, false},
		{"power cut inside an append", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			for i := 0; i < 2; i++ {
				if err := s.Append(testResult(i)); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if got := s.Counters()["spool_log_grows"]; got != 1 {
				t.Fatalf("spool_log_grows = %d after two appends, want 1", got)
			}
			path := filepath.Join(dir, "spool.log")
			if tc.closed {
				s.Close()
			}
			frames, size := frameBytes(t, path), fileSize(t, path)
			if tc.closed != (size == frames) {
				t.Fatalf("%d bytes of frames in a %d-byte file (closed: %v)", frames, size, tc.closed)
			}
			if tc.tear {
				f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatalf("open log: %v", err)
				}
				if _, err := f.WriteAt([]byte{0xff, 0x01, 0x02}, frames); err != nil {
					t.Fatalf("write torn bytes: %v", err)
				}
				f.Close()
			}

			s2 := mustOpen(t, dir, Options{})
			if got := s2.Len(); got != 2 {
				t.Fatalf("backlog after reopen = %d, want 2", got)
			}
			if got := s2.Counters()["spool_truncated_tail"]; (got == 1) != tc.tear {
				t.Fatalf("spool_truncated_tail = %d, torn %v", got, tc.tear)
			}
			if got := fileSize(t, path); tc.tear && got != frames {
				t.Fatalf("torn tail not truncated: %d bytes, the frames are %d", got, frames)
			}
			// Appends after the reopen extend a valid stream.
			if err := s2.Append(testResult(2)); err != nil {
				t.Fatalf("Append after reopen: %v", err)
			}
			s2.Close()
			s3 := mustOpen(t, dir, Options{})
			defer s3.Close()
			if got := s3.Len(); got != 3 {
				t.Fatalf("backlog after the append = %d, want 3", got)
			}
		})
	}
}

func TestEvictionOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxPending: 3})
	for i := 0; i < 5; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want bound of 3", got)
	}
	batch, _ := s.DrainBatch(0)
	if batch[0].TaskID != "t3" || batch[1].TaskID != "t4" || batch[2].TaskID != "t5" {
		t.Fatalf("eviction did not drop oldest first: %+v", batch)
	}
	if got := s.Counters()["spool_evicted"]; got != 2 {
		t.Fatalf("spool_evicted = %d, want 2", got)
	}
	s.Close()

	// Evictions are durable: the evicted results stay gone after reopen.
	s2 := mustOpen(t, dir, Options{MaxPending: 3})
	defer s2.Close()
	batch, _ = s2.DrainBatch(0)
	if len(batch) != 3 || batch[0].TaskID != "t3" {
		t.Fatalf("eviction not durable: %+v", batch)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactAfter: 4})
	for i := 0; i < 8; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	sizeBefore := frameBytes(t, filepath.Join(dir, "spool.log"))
	// Ack 6 of 8: consumed crosses CompactAfter, triggering a rewrite
	// down to the two pending frames.
	_, upTo := s.DrainBatch(6)
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if got := s.Counters()["spool_compactions"]; got != 1 {
		t.Fatalf("spool_compactions = %d, want 1", got)
	}
	if got := frameBytes(t, filepath.Join(dir, "spool.log")); got >= sizeBefore {
		t.Fatalf("compaction did not shrink log: %d >= %d", got, sizeBefore)
	}
	// The compacted log still appends and replays correctly.
	if err := s.Append(testResult(8)); err != nil {
		t.Fatalf("Append after compaction: %v", err)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	batch, _ := s2.DrainBatch(0)
	if len(batch) != 3 || batch[0].TaskID != "t7" || batch[2].TaskID != "t9" {
		t.Fatalf("post-compaction replay wrong: %+v", batch)
	}
}

func TestCrashDuringCompactionRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Deliver the first two so the pending set after the "crash" is a
	// strict subset of the log.
	_, upTo := s.DrainBatch(2)
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	s.Close()

	// Simulate a crash after the compaction rewrote the temp file but
	// before the rename: a stale (possibly garbage) spool.log.tmp sits
	// next to the still-authoritative log.
	tmp := filepath.Join(dir, "spool.log.tmp")
	if err := os.WriteFile(tmp, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatalf("write stale tmp: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temp survived Open: stat err = %v", err)
	}
	if got := s2.Counters()["spool_tmp_removed"]; got != 1 {
		t.Fatalf("spool_tmp_removed = %d, want 1", got)
	}
	// The pending set replayed from the live log is intact.
	batch, _ := s2.DrainBatch(0)
	if len(batch) != 2 || batch[0].TaskID != "t3" || batch[1].TaskID != "t4" {
		t.Fatalf("pending set damaged by tmp cleanup: %+v", batch)
	}
	// A compaction after the cleanup reuses the temp path without issue.
	_, upTo = s2.DrainBatch(1)
	if err := s2.AckBatch(upTo); err != nil {
		t.Fatalf("Ack: %v", err)
	}
}

func TestCountersPendingDepth(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	c := s.Counters()
	if c["spool_frames_pending"] != 3 {
		t.Fatalf("spool_frames_pending = %d, want 3", c["spool_frames_pending"])
	}
	if c["spool_frames_appended"] != 3 {
		t.Fatalf("spool_frames_appended = %d, want 3", c["spool_frames_appended"])
	}
}

func TestClosedSpoolRejectsWrites(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	s.Close()
	if err := s.Append(testResult(0)); err == nil {
		t.Fatal("Append on closed spool succeeded")
	}
	if err := s.AckBatch(1); err == nil {
		t.Fatal("Ack with pending on closed spool succeeded")
	}
}

// frameBytes is how much of a (possibly live) log file its frames occupy;
// a live log's file also holds its allocated zeros.
func frameBytes(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return framelog.Span(framelog.Frames(raw))
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return fi.Size()
}

// TestDrainBatchFrameSemantics: DrainBatch is a non-destructive read —
// the frame stays pending (and re-offers identically) until the
// matching AckBatch lands, and one AckBatch retires the whole frame in
// one durable write.
func TestDrainBatchFrameSemantics(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	frame, upTo := s.DrainBatch(4)
	if len(frame) != 4 || frame[0].TaskID != "t1" || frame[3].TaskID != "t4" {
		t.Fatalf("first frame wrong: %+v", frame)
	}
	if s.Len() != 6 {
		t.Fatalf("Len after drain = %d, want 6 (drain must not remove)", s.Len())
	}
	// A failed upload drains again: the identical frame re-offers.
	again, upTo2 := s.DrainBatch(4)
	if upTo2 != upTo || len(again) != 4 || again[0].TaskID != "t1" {
		t.Fatalf("re-offered frame diverged: %+v (seq %d vs %d)", again, upTo2, upTo)
	}
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("AckBatch: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len after ack = %d, want 2", s.Len())
	}
	rest, upTo := s.DrainBatch(0) // max <= 0 drains everything left
	if len(rest) != 2 || rest[0].TaskID != "t5" || rest[1].TaskID != "t6" {
		t.Fatalf("remaining frame wrong: %+v", rest)
	}
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("AckBatch: %v", err)
	}
	if got, seq := s.DrainBatch(0); got != nil || seq != 0 {
		t.Fatalf("empty spool drained %+v (seq %d), want nil/0", got, seq)
	}
	// Acking an already-retired frame is a no-op, not an error.
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("duplicate AckBatch: %v", err)
	}
}

// TestAckBatchDurableAcrossReopen: the batch ack survives an abrupt
// restart — retired results never re-offer, unacked ones always do.
func TestAckBatchDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Append(testResult(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	_, upTo := s.DrainBatch(3)
	if err := s.AckBatch(upTo); err != nil {
		t.Fatalf("AckBatch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	frame, _ := s2.DrainBatch(0)
	if len(frame) != 2 || frame[0].TaskID != "t4" || frame[1].TaskID != "t5" {
		t.Fatalf("reopened frame wrong: %+v", frame)
	}
}

// TestFailedWriteStopsTheSpool is the fail-stop invariant on the probe
// side: after a failed fsync — with or without a half-written frame in
// the file, as a short write leaves — nothing more is written behind it,
// every later Append and AckBatch returns the same error wrapping
// framelog.ErrStopped, and a reopen offers every result whose Append
// returned nil. (A spool that wrote on would put acknowledged frames
// behind the torn one, and the reopen would truncate them away with it.)
func TestFailedWriteStopsTheSpool(t *testing.T) {
	for _, halfFrame := range []bool{false, true} {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		for i := 0; i < 2; i++ {
			if err := s.Append(testResult(i)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if halfFrame {
			frame, err := journal.EncodeOp(3, kindResult, testResult(9))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.log.Write(frame[:len(frame)/2]); err != nil {
				t.Fatal(err)
			}
		}
		s.log.WrapSync = func(sync func() error) error {
			s.log.WrapSync = nil // fail once; the disk is fine afterwards
			return errors.New("injected EIO")
		}
		failed := s.Append(testResult(2))
		if !errors.Is(failed, framelog.ErrStopped) {
			t.Fatalf("Append with a failing fsync = %v, want an error wrapping ErrStopped", failed)
		}
		if err := s.Append(testResult(3)); err == nil || err.Error() != failed.Error() {
			t.Fatalf("Append after a failed fsync = %v, want the sticky %v: the spool must fail-stop", err, failed)
		}
		if err := s.AckBatch(1); err == nil || err.Error() != failed.Error() {
			t.Fatalf("AckBatch after a failed fsync = %v, want the sticky %v", err, failed)
		}
		s.Close()

		s2 := mustOpen(t, dir, Options{})
		got, _ := s2.DrainBatch(0)
		// The two acknowledged results come back, in order. The one whose
		// fsync failed was never acknowledged: it may have reached the
		// disk whole (delivering it is harmless), but behind a half frame
		// it is cut with the torn tail.
		wantMax := 3
		if halfFrame {
			wantMax = 2
			if s2.Counters()["spool_truncated_tail"] != 1 {
				t.Fatalf("half frame not truncated: %v", s2.Counters())
			}
		}
		if len(got) < 2 || len(got) > wantMax {
			t.Fatalf("half frame %v: reopen offers %d results, want 2..%d", halfFrame, len(got), wantMax)
		}
		for i, r := range got {
			if want := fmt.Sprintf("t%d", i+1); r.TaskID != want {
				t.Fatalf("reopened result %d is %s, want %s", i, r.TaskID, want)
			}
		}
		// Reopened, the spool appends again.
		if err := s2.Append(testResult(4)); err != nil {
			t.Fatalf("Append after reopen: %v", err)
		}
		s2.Close()
	}
}
