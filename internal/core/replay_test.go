package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/par"
)

// opConstants reads the string constants named op<Upper>… out of a source
// file: the journal record kinds the package declares.
func opConstants(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if len(name.Name) < 3 || !strings.HasPrefix(name.Name, "op") || name.Name[2] < 'A' || name.Name[2] > 'Z' || i >= len(spec.Values) {
				continue
			}
			if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				kind, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				kinds[name.Name] = kind
			}
		}
		return true
	})
	return kinds
}

// TestEveryOpKindReplays: a record kind the controller can journal (or
// once could) without an entry in replayOps is a data directory that does
// not recover, so every op* constant has one and the table has no others.
func TestEveryOpKindReplays(t *testing.T) {
	kinds := opConstants(t, "durability.go")
	if len(kinds) < 10 {
		t.Fatalf("found only %d op constants in durability.go: %v", len(kinds), kinds)
	}
	for name, kind := range kinds {
		if replayOps[kind] == nil {
			t.Errorf("%s (%q) has no entry in replayOps", name, kind)
		}
	}
	if len(replayOps) != len(kinds) {
		t.Errorf("replayOps has %d entries for %d op constants", len(replayOps), len(kinds))
	}
}

// appendRawRecords appends hand-made records to dir's journal.log.
func appendRawRecords(t *testing.T, dir string, recs ...journal.Record) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rec := range recs {
		frame, err := journal.EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnlyTheTailCanFailRecovery: records the snapshot covers are not
// decoded, whatever they hold; the first record past it that has no
// entry or does not decode fails the recovery by kind and seq.
func TestOnlyTheTailCanFailRecovery(t *testing.T) {
	dir := t.TempDir()
	c := mustRecover(t, dir, testDurCfg)
	mustRegister(t, c, "p1", 36924, "RW")
	mustRegister(t, c, "p2", 36924, "RW")
	want := viewOf(c)
	if err := c.Close(); err != nil { // snapshot at seq 2, empty journal
		t.Fatal(err)
	}
	appendRawRecords(t, dir,
		journal.Record{Seq: 1, Kind: "no_such_kind", Data: []byte(`1`)},
		journal.Record{Seq: 2, Kind: opSync, Data: []byte(`"not an op"`)})
	c = mustRecover(t, dir, testDurCfg)
	if got := c.DurabilityCounters()["recovery_replayed"]; got != 0 {
		t.Fatalf("replayed %d records the snapshot covers", got)
	}
	if got := viewOf(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("stale records changed the book\n got %+v\nwant %+v", got, want)
	}
	c.Tick(1) // seq 3: a tail for the bad records below to follow
	c.BreakJournal()

	for _, tc := range []struct {
		rec  journal.Record
		want string
	}{
		{journal.Record{Seq: 4, Kind: opSync, Data: []byte(`"not an op"`)}, "core: replaying probe_sync record seq 4: json: cannot unmarshal"},
		{journal.Record{Seq: 4, Kind: opTick}, "core: replaying tick record seq 4: unexpected end of JSON input"},
		{journal.Record{Seq: 4, Kind: "no_such_kind", Data: []byte(`1`)}, `core: unknown journal record kind "no_such_kind" (seq 4)`},
		// A submission whose count, chunks and columns disagree.
		{journal.Record{Seq: 4, Kind: opSubmitCols, Data: []byte(`{"assignments":-1,"chunks":[]}`)}, "core: replaying experiment_submit_cols record seq 4: a record of 30 bytes holds -1 assignments in 0 chunks"},
		{journal.Record{Seq: 4, Kind: opSubmitCols, Data: []byte(`{"assignments":2,"chunks":[]}`)}, "core: replaying experiment_submit_cols record seq 4: a record of 29 bytes holds 2 assignments in 0 chunks"},
		{journal.Record{Seq: 4, Kind: opSubmitCols, Data: []byte(`{"assignments":257,"chunks":[{},{}]}`)}, "core: replaying experiment_submit_cols record seq 4: a record of 36 bytes holds 257 assignments in 2 chunks"},
		{journal.Record{Seq: 4, Kind: opSubmitCols, Data: []byte(`{"assignments":2,"chunks":[{"probes":["p1"],"ids":["",""],"tasks":[{"kind":"ping"}]}]}`)}, "core: replaying experiment_submit_cols record seq 4: holds 1 probes, 2 ids and 2 shape entries"},
		{journal.Record{Seq: 4, Kind: opSubmitCols, Data: []byte(`{"assignments":2,"chunks":[{"probes":["p1","p2"],"ids":["",""],"tasks":[{"kind":"ping"}],"shape":[0,1]}]}`)}, "core: replaying experiment_submit_cols record seq 4: entry 1 names task body 1 of 1"},
	} {
		bad := t.TempDir()
		shipDir(t, dir, bad)
		appendRawRecords(t, bad, tc.rec, journal.Record{Seq: 5, Kind: "later_failure", Data: []byte(`1`)})
		if _, err := Recover(bad, testDurCfg); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("recovering over %s record: error %v, want %q…", tc.rec.Kind, err, tc.want)
		}
	}
}

// TestRecoveryIsWorkerCountIndependent: decode width changes how fast a
// recovery is and nothing else — one worker and eight read the same
// Records from a directory and recover it to byte-identical state, over
// the equivalence histories (snapshot_test.go) and the pinned columns
// directory.
func TestRecoveryIsWorkerCountIndependent(t *testing.T) {
	histories := equivalenceHistories(t)
	histories["pin"] = history{filepath.Join("testdata", "pin", "columns"), DurabilityConfig{Trusted: []string{"pin"}, LeaseTTL: 5}}
	for name, h := range histories {
		var records [2][]journal.Record
		var state [2][]byte
		for i, workers := range []int{1, 8} {
			dir := t.TempDir()
			shipDir(t, h.dir, dir)
			prev := par.SetDefaultWorkers(workers)
			l, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			records[i] = l.Records
			l.Close()
			c := mustRecover(t, dir, h.cfg)
			par.SetDefaultWorkers(prev)
			if got := c.DurabilityCounters()["recovery_replayed"]; got == 0 || recoverSeries(c, "decode") != 1 {
				t.Fatalf("%s: replayed %d records in %d decode phases; want a tail and one", name, got, recoverSeries(c, "decode"))
			}
			if err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if state[i], err = os.ReadFile(filepath.Join(dir, "snapshot.log")); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		if !reflect.DeepEqual(records[0], records[1]) {
			t.Errorf("%s: 1 worker and 8 read different Records (%d and %d)", name, len(records[0]), len(records[1]))
		}
		if !bytes.Equal(state[0], state[1]) {
			t.Errorf("%s: 1 worker and 8 recover different state\n%s\n%s", name, state[0], state[1])
		}
	}
}
