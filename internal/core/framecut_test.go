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

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// frameCuts are the shapes recovery cuts besides probe_sync's (cut.go),
// each with a check that a payload is declined or cut to exactly what
// json.Unmarshal reads of it; taken says which.
var frameCuts = []struct {
	name  string
	check func(data []byte) (taken bool, err error)
}{
	{"chunk", sameAsUnmarshal(cutCols)},
	{"task", sameAsUnmarshal(func(p []byte) (t probes.Task, ok bool) {
		ok = cutAll(p, func(c *cutter) { t = c.task(probes.Task{}) })
		return t, ok
	})},
	{"probe_block", sameAsUnmarshal(func(p []byte) ([]persistProbe, bool) {
		// A block this cut takes holds one `{"info":` per probe.
		dst := make([]persistProbe, bytes.Count(p, []byte(`{"info":`)))
		return dst, cutProbeBlock(p, dst)
	})},
	{"probe_register", sameAsUnmarshal(cutProbeInfo)},
	{"queues", sameAsUnmarshal(cutQueues)},
	{"leases", sameAsUnmarshal(cutLeases)},
	{"unsealed", sameAsUnmarshal(cutUnsealed)},
	{"submit_cols", sameAsUnmarshal(cutSubmitCols)},
}

// sameAsUnmarshal is the check of a cut that reads a T.
func sameAsUnmarshal[T any](cut func([]byte) (T, bool)) func([]byte) (bool, error) {
	return func(data []byte) (bool, error) {
		got, ok := cut(data)
		if !ok {
			return false, nil
		}
		var want T
		if err := json.Unmarshal(data, &want); err != nil {
			return true, fmt.Errorf("cut %q, which json.Unmarshal refuses: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			return true, fmt.Errorf("cut %q as %#v, json.Unmarshal reads %#v", data, got, want)
		}
		return true, nil
	}
}

// frameCutIndex is the index of a shape in frameCuts.
func frameCutIndex(name string) uint8 {
	for i, s := range frameCuts {
		if s.name == name {
			return uint8(i)
		}
	}
	panic("no frame cut " + name)
}

// frameGen draws the values of every cut shape; str draws the strings.
type frameGen struct {
	rng *rand.Rand
	str func() string
}

// Task.Value's draws: zero (omitted), the float exponent boundaries
// json.Marshal switches format at, the ends of float64's range.
var taskValues = []float64{0, 1, -1, 0.1, 1e20, 1e21, 123456789e13, 1e-6, 1e-7, 9.999999e-7,
	5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5e-300}

var taskInts = []int{0, 1, -1, 64, math.MaxInt, math.MinInt}

func (g frameGen) task() probes.Task {
	t := probes.Task{ID: g.str(), Experiment: g.str(), Kind: probes.TaskKind(g.str())}
	maybe := func() bool { return g.rng.Intn(2) == 0 }
	if maybe() {
		t.Target = g.str()
	}
	if maybe() {
		t.Domain = g.str()
	}
	if maybe() {
		t.OriginCountry = g.str()
	}
	if maybe() {
		t.Repeat = taskInts[g.rng.Intn(len(taskInts))]
	}
	if maybe() {
		t.Queries = g.rng.Intn(1000)
	}
	t.ECS = maybe()
	t.Value = taskValues[g.rng.Intn(len(taskValues))]
	return t
}

func (g frameGen) tasks(n int) []probes.Task {
	ts := make([]probes.Task, n)
	for i := range ts {
		ts[i] = g.task()
		if i > 0 && g.rng.Intn(2) == 0 {
			ts[i].Experiment, ts[i].Kind, ts[i].Target = ts[i-1].Experiment, ts[i-1].Kind, ts[i-1].Target
		}
	}
	return ts
}

func (g frameGen) probeInfo() ProbeInfo {
	asns := []topology.ASN{0, 36924, math.MaxUint32}
	p := ProbeInfo{ID: g.str(), ASN: asns[g.rng.Intn(len(asns))], Country: g.str(), HasWired: g.rng.Intn(2) == 0}
	if g.rng.Intn(2) == 0 {
		p.Kind = g.str()
	}
	return p
}

func (g frameGen) probeBlock() []persistProbe {
	block := make([]persistProbe, 1+g.rng.Intn(8))
	health := []ProbeHealth{ProbeAlive, ProbeSuspect, ProbeDead}
	for i := range block {
		block[i] = persistProbe{Info: g.probeInfo(), LastSeen: int64(g.rng.Intn(100) - 1), Health: health[g.rng.Intn(len(health))]}
		if g.rng.Intn(8) == 0 {
			block[i].LastSeen = math.MinInt64
		}
	}
	return block
}

// chunk is a chunk colsOf writes: one body or several, with recorded runs.
func (g frameGen) chunk() assignCols {
	bodies := g.tasks(1 + g.rng.Intn(3))
	chunk := make([]probes.Assignment, 1+g.rng.Intn(12))
	rec := map[string]bool{}
	for i := range chunk {
		chunk[i] = probes.Assignment{ProbeID: g.str(), Task: bodies[g.rng.Intn(len(bodies))]}
		chunk[i].Task.ID = g.str()
		rec[chunk[i].Task.ID] = g.rng.Intn(3) == 0
	}
	return colsOf(chunk, rec)
}

func (g frameGen) submit() submitRecord {
	rec := submitRecord{Owner: g.str(), Description: g.str()}
	if g.rng.Intn(2) == 0 {
		rec.RequestID = g.str()
	}
	if g.rng.Intn(2) == 0 {
		rec.ExpID = g.str()
	}
	// Up to three chunks, the last one short.
	rec.Assignments = make([]probes.Assignment, g.rng.Intn(3*snapChunk))
	bodies := g.tasks(1 + g.rng.Intn(2))
	for i := range rec.Assignments {
		rec.Assignments[i] = probes.Assignment{ProbeID: g.str(), Task: bodies[g.rng.Intn(len(bodies))]}
		if g.rng.Intn(2) == 0 {
			rec.Assignments[i].Task.ID = g.str()
		}
	}
	return rec
}

func (g frameGen) queues() map[string][]probes.Task {
	queues := map[string][]probes.Task{}
	for n := g.rng.Intn(5); n > 0; n-- {
		queues[g.str()] = g.tasks(1 + g.rng.Intn(4))
	}
	return queues
}

func (g frameGen) leases() map[string]persistLease {
	leases := map[string]persistLease{}
	for n := g.rng.Intn(5); n > 0; n-- {
		leases[g.str()] = persistLease{Task: g.task(), ProbeID: g.str(), Deadline: int64(g.rng.Intn(50))}
	}
	return leases
}

func (g frameGen) unsealed() []unsealedRef {
	refs := []unsealedRef{}
	exp := g.str()
	for n := g.rng.Intn(6); n > 0; n-- {
		if g.rng.Intn(3) == 0 {
			exp = g.str()
		}
		refs = append(refs, unsealedRef{resultRef{exp, g.str()}, g.rng.Uint64() >> uint(g.rng.Intn(64))})
	}
	return refs
}

// value draws a value of the shape named.
func (g frameGen) value(shape string) any {
	switch shape {
	case "chunk":
		return g.chunk()
	case "task":
		return g.task()
	case "probe_block":
		return g.probeBlock()
	case "probe_register":
		return g.probeInfo()
	case "queues":
		return g.queues()
	case "leases":
		return g.leases()
	case "unsealed":
		return g.unsealed()
	case "submit_cols":
		return g.submit()
	}
	panic("no generator for " + shape)
}

// printableIDs draws strings of printable ASCII that json.Marshal writes
// as themselves.
func printableIDs(rng *rand.Rand) func() string {
	var alphabet []byte
	for c := byte(' '); c <= '~'; c++ {
		if !strings.ContainsRune(`"\<>&`, rune(c)) {
			alphabet = append(alphabet, c)
		}
	}
	return func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
}

// FuzzSnapshotFrameCut: each cut in frameCuts either declines a payload
// or returns exactly what json.Unmarshal makes of it, nil and empty
// slices told apart. The seeds are json.Marshal's bytes for values at
// the edges of every field — ids with escapes, non-ASCII, U+2028 and
// <>&; Task.Value at the float format boundaries; ints and ASNs at and
// past their ranges; has_wired both ways; every omitempty field present
// and absent — and near misses the cut must decline or read as Unmarshal
// does.
func FuzzSnapshotFrameCut(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	odd := []string{"", "p1", "a<b>&c", "exp-é", "line\u2028sep", `q"uo\te`, "tab\there", "bad\xffutf8"}
	gens := []frameGen{
		{rng, printableIDs(rng)},
		{rng, func() string { return odd[rng.Intn(len(odd))] }},
	}
	for i, shape := range frameCuts {
		for _, g := range gens {
			for n := 0; n < 6; n++ {
				raw, err := json.Marshal(g.value(shape.name))
				if err != nil {
					f.Fatal(err)
				}
				f.Add(uint8(i), raw)
			}
		}
	}
	task := `{"id":"t","experiment":"e","kind":"ping"`
	info := `{"id":"p1","asn":36924,"country":"RW","has_wired":false}`
	near := map[string][]string{
		"task": {
			task + `}`,
			task + `,"target":"10.0.0.1","domain":"d","origin_country":"RW","repeat":2,"queries":64,"ecs":true,"value":1.5}`,
			task + `,"value":1e21}`, task + `,"value":1e+21}`, task + `,"value":1E21}`, task + `,"value":1e-7}`,
			task + `,"value":1e400}`, task + `,"value":-1e400}`, task + `,"value":1e-400}`, task + `,"value":-0}`,
			task + `,"value":0.0}`, task + `,"value":.5}`, task + `,"value":5.}`, task + `,"value":+1}`,
			task + `,"value":01}`, task + `,"value":1e}`, task + `,"value":Infinity}`, task + `,"value":NaN}`,
			task + `,"value":0x10}`, task + `,"value":1_0}`, task + `,"value":-}`,
			task + `,"repeat":9223372036854775807}`, task + `,"repeat":9223372036854775808}`,
			task + `,"repeat":-9223372036854775808}`, task + `,"repeat":-9223372036854775809}`,
			task + `,"repeat":-0}`, task + `,"repeat":1.0}`, task + `,"ecs":false}`, task + `,"ecs":null}`,
			task + `,"target":""}`, task + `,"value":1,"target":"x"}`, task + `,"kind":"dns"}`,
			task + `,"Target":"x"}`, task + `,"unknown":1}`, task + ` }`, task + `}x`, task + `,"target":null}`,
			`{"experiment":"e","id":"t","kind":"ping"}`, `{"ID":"t","experiment":"e","kind":"ping"}`, `null`,
		},
		"probe_register": {
			info,
			`{"id":"p1","asn":36924,"country":"RW","has_wired":true,"kind":"proxy"}`,
			`{"id":"p1","asn":-1,"country":"RW","has_wired":false}`,
			`{"id":"p1","asn":4294967295,"country":"RW","has_wired":false}`,
			`{"id":"p1","asn":4294967296,"country":"RW","has_wired":false}`,
			`{"id":"p1","asn":36924,"country":"RW","has_wired":"true"}`,
			`{"id":"p1","asn":36924,"country":"RW","has_wired":null}`,
			`{"id":"p1","asn":36924,"country":"RW","has_wired":false,"kind":""}`,
			`{"id":"p1","asn":36924,"country":"RW"}`,
			`{"id":"p1","id":"p2","asn":36924,"country":"RW","has_wired":false}`,
			`{"id":"p1","asn":36924,"country":"RW","has_wired":false}`,
			`{"id": "p1","asn":36924,"country":"RW","has_wired":false}`,
		},
		"probe_block": {
			`[]`, `null`, `[` + `{"info":` + info + `,"last_seen":3,"health":"alive"}]`,
			`[{"info":` + info + `,"last_seen":-9223372036854775808,"health":"dead"},{"info":` + info + `,"last_seen":0,"health":"alive"}]`,
			`[{"info":` + info + `,"last_seen":9223372036854775808,"health":"alive"}]`,
			`[{"info":` + info + `,"health":"alive","last_seen":3}]`,
			`[{"info":` + info + `,"last_seen":3,"health":"alive"},]`,
			`[{"info":` + info + `,"last_seen":3,"health":"alive"} ]`,
			`[{"info":null,"last_seen":3,"health":"alive"}]`,
		},
		"chunk": {
			`{"probes":[],"ids":[],"tasks":[]}`,
			`{"probes":["p1"],"ids":[""],"tasks":[` + task + `}]}`,
			`{"probes":["p1","p2"],"ids":["a","b"],"tasks":[` + task + `},` + task + `,"target":"x"}],"shape":[0,1],"recorded":[[0,2]]}`,
			`{"probes":["p1"],"ids":["a"],"tasks":[` + task + `}],"shape":[],"recorded":[]}`,
			`{"probes":["p1"],"ids":["a"],"tasks":[` + task + `}],"shape":null}`,
			`{"probes":["p1"],"ids":["a"],"tasks":[` + task + `}],"shape":[-1],"recorded":[[1]]}`,
			`{"probes":["p1"],"ids":["a"],"tasks":[` + task + `}],"recorded":[[0,1,2]]}`,
			`{"probes":["p1"],"ids":["a"],"tasks":[` + task + `}],"shape":[9223372036854775808]}`,
			`{"probes":["p1"],"ids":["a"],"tasks":[` + task + `}],"recorded":[[0,1]],"shape":[0]}`,
			`{"probes":["p1",],"ids":["a"],"tasks":[]}`,
			`{"probes":["p\"1"],"ids":["a"],"tasks":[]}`,
			`{"probes":["p1"],"ids":["a"],"tasks":[],"probes":["p2"]}`,
			`{"probes":[ "p1"],"ids":["a"],"tasks":[]}`,
			`{"probes":null,"ids":[],"tasks":[]}`,
		},
		"queues": {
			`{}`, `null`, `{"p1":[]}`, `{"p1":null}`,
			`{"p1":[` + task + `}],"p1":[` + task + `,"target":"x"}]}`,
			`{"p2":[` + task + `}],"p1":[` + task + `}]}`,
			`{"p1":[` + task + `}] }`, `{"p1":[` + task + `}],}`,
		},
		"leases": {
			`{}`, `{"k":{"task":` + task + `},"probe_id":"p1","deadline":5}}`,
			`{"k":{"task":` + task + `},"probe_id":"p1","deadline":-5}}`,
			`{"k":{"task":` + task + `},"deadline":5,"probe_id":"p1"}}`,
			`{"k":{"task":` + task + `},"probe_id":"p1","deadline":5},"k":{"task":` + task + `},"probe_id":"p2","deadline":5}}`,
			`{"k":{"task":null,"probe_id":"p1","deadline":5}}`,
		},
		"unsealed": {
			`[]`, `null`, `[{"exp":"e","task":"t","seq":1}]`, `[{"exp":"e","task":"t","seq":0}]`,
			`[{"exp":"e","task":"t","seq":18446744073709551615},{"exp":"e","task":"u","seq":2}]`,
			`[{"exp":"e","task":"t","seq":18446744073709551616}]`, `[{"exp":"e","task":"t","seq":-1}]`,
			`[{"task":"t","exp":"e","seq":1}]`, `[{"exp":"e","task":"t"}]`,
		},
		"submit_cols": {
			`{"owner":"o","description":"d","assignments":0,"chunks":[]}`,
			`{"owner":"o","description":"d","assignments":0,"chunks":null}`,
			`{"request_id":"r","owner":"o","description":"d","exp_id":"x","assignments":1,"chunks":[{"probes":["p1"],"ids":[""],"tasks":[` + task + `}]}]}`,
			`{"owner":"o","description":"d","assignments":2,"chunks":[{"probes":["p1"],"ids":[""],"tasks":[` + task + `}]},{"probes":["p2"],"ids":[""],"tasks":[` + task + `}]}]}`,
			`{"owner":"o","description":"d","assignments":2,"chunks":[{"probes":["p1"],"ids":[""],"tasks":[` + task + `}]}, {"probes":["p2"],"ids":[""],"tasks":[` + task + `}]}]}`,
			`{"owner":"o","description":"d","assignments":2,"chunks":[,{"probes":["p1"],"ids":[""],"tasks":[]}]}`,
			`{"owner":"o","description":"d","assignments":2,"chunks":[{"probes":["p1"],"ids":[""],"tasks":[]},]}`,
			`{"owner":"o","description":"d","exp_id":"x","request_id":"r","assignments":0,"chunks":[]}`,
			`{"owner":"o","description":"d\n","assignments":0,"chunks":[]}`,
			`{"owner":"o","description":"d","assignments":0,"chunks":[]} `,
		},
	}
	for shape, seeds := range near {
		for _, s := range seeds {
			f.Add(frameCutIndex(shape), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		if _, err := frameCuts[int(shape)%len(frameCuts)].check(data); err != nil {
			t.Fatalf("%s: %v", frameCuts[int(shape)%len(frameCuts)].name, err)
		}
	})
}

// TestSnapshotFrameCutTakesWhatMarshalWrites is the fuzz target's other
// half: every value of printable-ASCII strings that json.Marshal writes
// is cut in full, to what json.Unmarshal reads, so the cuts cannot
// quietly stop applying to this binary's files.
func TestSnapshotFrameCutTakesWhatMarshalWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := frameGen{rng, printableIDs(rng)}
	for _, shape := range frameCuts {
		for i := 0; i < 300; i++ {
			raw, err := json.Marshal(g.value(shape.name))
			if err != nil {
				t.Fatal(err)
			}
			taken, err := shape.check(raw)
			if err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			if !taken {
				t.Fatalf("%s: declined %s, which json.Marshal wrote", shape.name, raw)
			}
		}
	}
}

// frameCutBook is a directory whose snapshot has every frame kind that
// is cut non-empty — probe blocks, two chunks (one of several bodies),
// queues, leases, unsealed refs — and whose journal tail holds
// probe_register and experiment_submit_cols records.
func frameCutBook(t *testing.T) string {
	dir := t.TempDir()
	c := mustRecover(t, dir, lossyCfg)
	for _, id := range []string{"p1", "p2", "p3"} {
		mustRegister(t, c, id, 36924, "RW")
	}
	as := append(pingAssignments("p1", 200), pingAssignments("p2", 100)...)
	as = append(as, probes.Assignment{ProbeID: "p3", Task: probes.Task{Kind: probes.TaskDNS, Domain: "site0.RW", OriginCountry: "RW", Value: 2.5}})
	if _, err := c.SubmitExperiment("o", "frames", as); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SyncProbe("p1", nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SyncProbe("p1", []probes.Result{okResult(resp.Tasks[0])}, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterProbe(ProbeInfo{ID: "p4", ASN: 37006, Country: "KE", HasWired: true, Kind: "proxy"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitExperiment("o", "tail", pingAssignments("p4", 300)); err != nil {
		t.Fatal(err)
	}
	c.BreakJournal()
	return dir
}

// TestReflectDecodedFramesRecoverTheSame: a snapshot frame or a journal
// record that is the same value hand-indented is not this binary's
// layout, so json.Unmarshal reads it; recovery lands on the same book as
// from the canonical directory, and recovery_reflect_decodes counts it.
func TestReflectDecodedFramesRecoverTheSame(t *testing.T) {
	src := frameCutBook(t)
	dir := t.TempDir()
	shipDir(t, src, dir)
	canon := mustRecover(t, dir, lossyCfg)
	defer canon.Close()
	if d := canon.DurabilityCounters(); d["recovery_reflect_decodes"] != 0 || d["recovery_replayed"] != 2 {
		t.Fatalf("canonical recovery: %v", d)
	}
	want := legacyState(canon)

	frames := framelog.Frames(readSnapshotLog(t, src))
	n := len(frames)
	if n != 1+1+2+snapTailFrames || !bytes.Contains(frames[3], []byte(`"shape":[`)) {
		t.Fatalf("snapshot holds %d frames; want a probe block and two chunks, the second of several bodies", n)
	}
	indent := func(p []byte) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, p, "", "  "); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	cases := map[string]func(dir string){}
	for name, i := range map[string]int{"probe block": 1, "chunk": 2, "chunk of several bodies": 3, "queues": n - 4, "leases": n - 3, "unsealed": n - 1} {
		if len(frames[i]) < 8 {
			t.Fatalf("%s frame is %s; the case is vacuous", name, frames[i])
		}
		cases[name] = func(dir string) {
			out := append([][]byte(nil), frames...)
			out[i] = indent(frames[i])
			if err := os.WriteFile(filepath.Join(dir, "snapshot.log"), reframe(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, kind := range []string{opRegister, opSubmitCols} {
		cases[kind] = func(dir string) {
			l, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var log []byte
			for _, rec := range l.Records {
				payload, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Kind == kind {
					// EncodeFrame would compact the data back: write the frame by hand.
					payload = fmt.Appendf(nil, `{"seq":%d,"kind":%q,"data":%s}`, rec.Seq, rec.Kind, indent(rec.Data))
				}
				if log, err = framelog.AppendFrame(log, payload); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			if err := os.WriteFile(filepath.Join(dir, "journal.log"), log, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, edit := range cases {
		dir := t.TempDir()
		shipDir(t, src, dir)
		edit(dir)
		got := mustRecover(t, dir, lossyCfg)
		if d := got.DurabilityCounters(); d["recovery_reflect_decodes"] != 1 {
			t.Errorf("%s indented: recovery_reflect_decodes %d, want 1", name, d["recovery_reflect_decodes"])
		}
		if g := legacyState(got); !reflect.DeepEqual(g, want) {
			t.Errorf("%s indented: recovered book differs\n got %+v\nwant %+v", name, g, want)
		}
		if g, w := viewOf(got), viewOf(canon); !reflect.DeepEqual(g, w) {
			t.Errorf("%s indented: recovered view differs", name)
		}
		got.Close()
	}
}
