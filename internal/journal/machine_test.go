package journal

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/obs"
)

// toy is a Machine's owner in miniature: a map of ints, one key set per
// record, snapshotted whole in the head.
type toy map[string]int

type setOp struct {
	K string `json:"k"`
	V int    `json:"v"`
}

var toyOps = map[string]Op[toy]{"set": OpOf(func(s toy, op setOp) { s[op.K] = op.V })}

// openToy opens dir for a fresh toy that snapshots after every `every`
// appends; without codec the toy writes no snapshot.
func openToy(t *testing.T, dir string, every int, codec bool) (*Machine[toy], toy, *obs.Registry) {
	t.Helper()
	s, reg := toy{}, obs.NewRegistry()
	owner := Owner[toy]{State: s, Ops: toyOps, Every: every, Obs: reg}
	if codec {
		owner.Decode = func(snap *Snapshot) error { return json.Unmarshal(snap.Head, &s) }
		owner.Encode = func() (any, [][]byte, error) { return s, nil, nil }
	}
	m, err := OpenMachine(dir, owner)
	if err != nil {
		t.Fatal(err)
	}
	return m, s, reg
}

func set(t *testing.T, m *Machine[toy], s toy, k string, v int) {
	t.Helper()
	op := setOp{k, v}
	if err := m.Do(nil, "set", op, func() { s[op.K] = op.V }); err != nil {
		t.Fatal(err)
	}
}

// rebuildToy opens dir for a fresh toy with a codec and rebuilds it.
func rebuildToy(t *testing.T, dir string) (*Machine[toy], toy, *obs.Registry, int) {
	t.Helper()
	m, s, reg := openToy(t, dir, 0, true)
	n, _, err := m.Rebuild(func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	return m, s, reg, n
}

func TestMachineSnapshotCadence(t *testing.T) {
	for _, tc := range []struct {
		every, snapshots, replayed int
	}{{3, 2, 1}, {0, 0, 7}} {
		dir := t.TempDir()
		m, s, reg := openToy(t, dir, tc.every, true)
		for i := range 7 {
			set(t, m, s, string(rune('a'+i)), i)
		}
		events := reg.Counters(MetricEvents).Snapshot()
		if events["snapshots_written"] != int64(tc.snapshots) || events["journal_records_appended"] != 7 {
			t.Errorf("every %d: events %v, want %d snapshots of 7 records", tc.every, events, tc.snapshots)
		}
		if got := reg.Snapshots()[MetricSeconds+`{op="append"}`].Count; got != 7 {
			t.Errorf("every %d: %d appends timed, want 7", tc.every, got)
		}
		if _, err := os.Stat(filepath.Join(dir, snapName)); (err == nil) != (tc.snapshots > 0) {
			t.Errorf("every %d: snapshot.log stat: %v", tc.every, err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m2, got, _, n := rebuildToy(t, dir)
		m2.Close()
		if n != tc.replayed || !maps.Equal(got, s) {
			t.Errorf("every %d: rebuilt %v from %d records, want %v from %d", tc.every, got, n, s, tc.replayed)
		}
	}
}

// TestRebuildSkipsTheCoveredPrefix: a crash between the snapshot's rename
// and the journal's compaction leaves the records the snapshot covers in
// journal.log. Rebuild neither decodes nor replays them, so one the owner
// no longer reads cannot fail it.
func TestRebuildSkipsTheCoveredPrefix(t *testing.T) {
	dir := t.TempDir()
	m, s, _ := openToy(t, dir, 0, true)
	for i := range 4 {
		set(t, m, s, string(rune('a'+i)), i)
	}
	if err := m.Do(nil, "retired", 1, func() {}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	covered := raw[:framelog.Span(framelog.Frames(raw))]
	if err := m.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	set(t, m, s, "e", 4)
	set(t, m, s, "a", 9)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), append(covered, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, got, reg, n := rebuildToy(t, dir)
	defer m2.Close()
	if n != 2 || reg.Counters(MetricEvents).Get("recovery_replayed") != 2 || !maps.Equal(got, s) {
		t.Fatalf("rebuilt %v from %d records, want %v from the 2 past the snapshot", got, n, s)
	}
}

func TestRebuildCountsATornTail(t *testing.T) {
	dir := t.TempDir()
	m, s, _ := openToy(t, dir, 0, true)
	set(t, m, s, "a", 1)
	set(t, m, s, "b", 2)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m2, s2, reg := openToy(t, dir, 0, true)
	defer m2.Close()
	n, torn, err := m2.Rebuild(func(string) {})
	if err != nil || n != 2 || !torn || !maps.Equal(s2, s) {
		t.Fatalf("Rebuild: %d records, torn %v, %v, state %v", n, torn, err, s2)
	}
	if got := reg.Counters(MetricEvents).Get("recovery_truncated_tail"); got != 1 {
		t.Fatalf("recovery_truncated_tail = %d, want 1", got)
	}
}

// TestRebuildErrorTexts: a tail record the owner's table does not take
// fails Rebuild by kind and seq, in the words owners' tests and operators
// read, as does a snapshot the owner does not decode.
func TestRebuildErrorTexts(t *testing.T) {
	for _, tc := range []struct {
		kind string
		data any
		want string
	}{
		{"no_such_kind", 1, `unknown journal record kind "no_such_kind" (seq 2)`},
		{"set", []int{1}, "replaying set record seq 2: json: cannot unmarshal"},
	} {
		dir := t.TempDir()
		m, s, _ := openToy(t, dir, 0, true)
		set(t, m, s, "a", 1)
		if err := m.Do(nil, tc.kind, tc.data, func() {}); err != nil {
			t.Fatal(err)
		}
		m.Close()
		m2, _, _ := openToy(t, dir, 0, true)
		if _, _, err := m2.Rebuild(func(string) {}); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Rebuild over a %s record: %v, want %q…", tc.kind, err, tc.want)
		}
		m2.Close()
	}
	dir := t.TempDir()
	m, s, _ := openToy(t, dir, 0, true)
	set(t, m, s, "a", 1)
	if err := m.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	m.Close()
	bad := errors.New("bad head")
	m2, err := OpenMachine(dir, Owner[toy]{Ops: toyOps, Obs: obs.NewRegistry(),
		Decode: func(*Snapshot) error { return bad }})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, _, err := m2.Rebuild(func(string) {}); !errors.Is(err, bad) || err.Error() != "decoding snapshot: bad head" {
		t.Errorf("Rebuild over a snapshot its owner does not decode: %v", err)
	}
}

// TestRebuildDropsTheRecoveryView: the log lives as long as its owner, and
// the snapshot's frames and the decoded records alias both files' images,
// so once they are replayed the log keeps neither, nor does a later
// snapshot bring them back.
func TestRebuildDropsTheRecoveryView(t *testing.T) {
	dir := t.TempDir()
	m, s, _ := openToy(t, dir, 0, true)
	set(t, m, s, "a", 1)
	if err := m.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	set(t, m, s, "b", 2)
	m.Close()
	m2, s2, _, n := rebuildToy(t, dir)
	defer m2.Close()
	if n != 1 {
		t.Fatalf("drill wants a snapshot and a one-record tail: replayed %d", n)
	}
	if m2.log.Snap != nil || m2.log.Records != nil {
		t.Fatalf("log still holds its recovery view: snapshot %v, %d records", m2.log.Snap != nil, len(m2.log.Records))
	}
	set(t, m2, s2, "c", 3)
	if err := m2.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	if m2.log.Snap != nil || m2.log.Records != nil {
		t.Fatal("a snapshot brought the recovery view back")
	}
}

// TestMachineRefusesASnapshotItsOwnerCannotRead: an owner without a
// snapshot decoder would rebuild from the tail alone and append behind a
// state it never read; its machine refuses the directory and leaves every
// byte of it as it was.
func TestMachineRefusesASnapshotItsOwnerCannotRead(t *testing.T) {
	dir := t.TempDir()
	m, s, _ := openToy(t, dir, 0, true)
	set(t, m, s, "a", 1)
	if err := m.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	set(t, m, s, "b", 2)
	m.Close()
	image := func() map[string]string {
		files := map[string]string{}
		for _, name := range []string{logName, snapName} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = string(b)
		}
		return files
	}
	before := image()
	if m2, err := OpenMachine(dir, Owner[toy]{State: toy{}, Ops: toyOps, Obs: obs.NewRegistry()}); err == nil {
		m2.Close()
		t.Fatal("an owner without a snapshot decoder opened a directory holding a snapshot")
	}
	if !reflect.DeepEqual(image(), before) {
		t.Fatal("the refusal changed the directory")
	}
}

// TestNilMachineOnlyApplies: an owner kept in memory has a nil machine.
func TestNilMachineOnlyApplies(t *testing.T) {
	var m *Machine[toy]
	applied := false
	if err := m.Do(nil, "set", setOp{}, func() { applied = true }); err != nil || !applied {
		t.Fatalf("Do: %v, applied %v", err, applied)
	}
	if m.Snapshot(nil) != nil || m.Close() != nil {
		t.Fatal("a nil machine's Snapshot or Close failed")
	}
}
