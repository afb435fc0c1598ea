package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
)

// FuzzSyncOpCut: cutSyncOp either declines a payload or returns exactly
// what json.Unmarshal makes of it, nil and empty Refs told apart.
// The seeds are json.Marshal's output for syncOps at the edges of each
// field, and near misses the cut must decline or read as Unmarshal does.
func FuzzSyncOpCut(f *testing.F) {
	twoExps := []resultRef{{"exp-0001", "exp-0001-t0000"}, {"exp-0001", "exp-0001-t0001"}, {"exp-0002", "exp-0002-t0000"}, {"exp-0001", "exp-0001-t0002"}}
	for _, op := range []syncOp{
		{ProbeID: "p1", Max: -1},
		{ProbeID: "p1", Max: 0},
		{ProbeID: "p1", Max: math.MaxInt},
		{ProbeID: "p1", Max: math.MinInt},
		{ProbeID: "p1", Seq: math.MaxUint64, Max: 2},
		{ProbeID: "p1", Refs: []resultRef{}, Max: 2},
		{ProbeID: "p1", Refs: twoExps[:1], Seq: 1, Max: -1},
		{ProbeID: "probe-0042", Refs: twoExps, Seq: 9, Max: 2},
		{ProbeID: "", Refs: []resultRef{{"", ""}}, Seq: 1, Max: 1},
		{ProbeID: "a<b>&c", Max: 1},
		{ProbeID: "p1", Refs: []resultRef{{"exp-é", "t"}}, Seq: 1, Max: 1},
		{ProbeID: "line\u2028sep", Max: 1},
		{ProbeID: "p q", Max: 1},
		{ProbeID: `q"uo\te`, Max: 1},
	} {
		raw, err := json.Marshal(op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, s := range []string{
		`{"probe_id":"p1","max":01}`,
		`{"probe_id":"p1","seq":07,"max":1}`,
		`{"probe_id":"p1","max":-0}`,
		`{"probe_id":"p1","max":+1}`,
		`{"probe_id":"p1","max":1.0}`,
		`{"probe_id":"p1","max":9223372036854775808}`,
		`{"probe_id":"p1","max":-9223372036854775809}`,
		`{"probe_id":"p1","seq":18446744073709551616,"max":1}`,
		`{"probe_id":"p1","seq":0,"max":1}`,
		`{"probe_id": "p1","max":1}`,
		` {"probe_id":"p1","max":1}`,
		`{"probe_id":"p1","max":1} `,
		`{"probe_id":"p1","Max":1}`,
		`{"Probe_ID":"p1","max":1}`,
		`{"probe_id":"p1","refs":[],"max":1}`,
		`{"probe_id":"p1","refs":null,"max":1}`,
		`{"probe_id":"p1","refs":[{"exp":"e","task":"t"},],"max":1}`,
		`{"probe_id":"p1","refs":[{"task":"t","exp":"e"}],"seq":1,"max":1}`,
		`{"probe_id":"p1","probe_id":"p2","max":1}`,
		`{"probe_id":"p1","max":1,"max":2}`,
		`{"probe_id":"p1","max":1}`,
		`{"probe_id":"p1","max":1}x`,
		`{"probe_id":"p1","max":1`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := cutSyncOp(data)
		if !ok {
			return
		}
		var want syncOp
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("cut %q, which json.Unmarshal refuses: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %q as %#v, json.Unmarshal reads %#v", data, got, want)
		}
	})
}

// TestCutSyncOpTakesWhatMarshalWrites is the fuzz target's other half:
// every syncOp of printable-ASCII ids that json.Marshal writes without an
// escape is cut, to the op marshalled, so the fast path cannot quietly
// stop applying to this binary's records.
func TestCutSyncOpTakesWhatMarshalWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var alphabet []byte // printable ASCII that json.Marshal writes as itself
	for c := byte(' '); c <= '~'; c++ {
		if !strings.ContainsRune(`"\<>&`, rune(c)) {
			alphabet = append(alphabet, c)
		}
	}
	str := func() string {
		b := make([]byte, rng.Intn(16))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	maxes := []int{-1, 0, 1, math.MaxInt, math.MinInt}
	for i := 0; i < 2000; i++ {
		op := syncOp{ProbeID: str(), Max: maxes[rng.Intn(len(maxes))]}
		if i%2 == 0 {
			op.Max = rng.Intn(2001) - 1000
		}
		if rng.Intn(3) > 0 {
			op.Seq = rng.Uint64() >> uint(rng.Intn(64))
		}
		exp := str()
		for n := rng.Intn(6); n > 0; n-- {
			if rng.Intn(3) == 0 {
				exp = str()
			}
			op.Refs = append(op.Refs, resultRef{Experiment: exp, TaskID: str()})
		}
		raw, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cutSyncOp(raw)
		if !ok {
			t.Fatalf("declined %s, which json.Marshal wrote", raw)
		}
		if !reflect.DeepEqual(got, op) {
			t.Fatalf("cut %s as %#v, want %#v", raw, got, op)
		}
	}
}

// TestCutSyncOpSharesExperimentStrings: consecutive refs of one
// experiment hold one string, not a copy each.
func TestCutSyncOpSharesExperimentStrings(t *testing.T) {
	raw := []byte(`{"probe_id":"p1","refs":[{"exp":"exp-0001","task":"a"},{"exp":"exp-0001","task":"b"},{"exp":"exp-0002","task":"c"}],"max":1}`)
	op, ok := cutSyncOp(raw)
	if !ok || len(op.Refs) != 3 {
		t.Fatalf("cut %s: %#v, %v", raw, op, ok)
	}
	if a, b := op.Refs[0].Experiment, op.Refs[1].Experiment; a != b || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("refs 0 and 1 hold %q and %q in two strings", a, b)
	}
}

// TestReflectDecodedSyncReplaysTheSame: a probe_sync record whose data is
// the same op with white space in it is not this binary's layout, so
// json.Unmarshal reads it; recovery lands on the same state as from the
// canonical record, and recovery_reflect_decodes counts it once.
func TestReflectDecodedSyncReplaysTheSame(t *testing.T) {
	dir := t.TempDir()
	c := mustRecover(t, dir, testDurCfg)
	mustRegister(t, c, "p1", 36924, "RW")
	if _, err := c.SubmitExperiment("o", "twin", pingAssignmentsFor("p1", 4)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SyncProbe("p1", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rs []probes.Result
	for _, task := range resp.Tasks {
		rs = append(rs, okResult(task))
	}
	if _, err := c.SyncProbe("p1", rs, 1); err != nil {
		t.Fatal(err)
	}
	// c is abandoned, as a crash leaves it: the whole history is the tail.
	twin := t.TempDir()
	shipDir(t, dir, twin)
	l, err := journal.Open(twin)
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	indented := 0
	for _, rec := range l.Records {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == opSync && bytes.Contains(rec.Data, []byte(`"refs"`)) {
			var data bytes.Buffer
			if err := json.Indent(&data, rec.Data, "", " "); err != nil {
				t.Fatal(err)
			}
			// EncodeFrame would compact the data back: write the frame by hand.
			payload = fmt.Appendf(nil, `{"seq":%d,"kind":%q,"data":%s}`, rec.Seq, rec.Kind, data.Bytes())
			indented++
		}
		if log, err = framelog.AppendFrame(log, payload); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if indented != 1 {
		t.Fatalf("indented %d probe_sync records with refs, want 1", indented)
	}
	if err := os.WriteFile(filepath.Join(twin, "journal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	want := mustRecover(t, dir, testDurCfg)
	defer want.Close()
	got := mustRecover(t, twin, testDurCfg)
	defer got.Close()
	if dw, dg := want.DurabilityCounters(), got.DurabilityCounters(); dw["recovery_reflect_decodes"] != 0 || dg["recovery_reflect_decodes"] != 1 ||
		dw["recovery_replayed"] != 4 || dg["recovery_replayed"] != 4 {
		t.Fatalf("canonical recovery %v, white-space twin %v", dw, dg)
	}
	if w, g := viewOf(want), viewOf(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("white-space twin diverged\n got %+v\nwant %+v", g, w)
	}
	if got.Stats().Counters["results_recorded"] != 2 {
		t.Fatalf("twin recorded %d results, want 2", got.Stats().Counters["results_recorded"])
	}
}

// TestTaskIDIsSprintf: the minted task id is fmt.Sprintf("%s-t%04d").
func TestTaskIDIsSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 10, 999, 1000, 9999, 10000, 123456} {
		if got, want := TaskID("exp-0001", i), fmt.Sprintf("%s-t%04d", "exp-0001", i); got != want {
			t.Errorf("TaskID(%d) = %q, want %q", i, got, want)
		}
	}
}
