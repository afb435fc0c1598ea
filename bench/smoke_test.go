package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the root BENCHMARK.json, as far as TestSmoke reads it.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) ([]byte, benchmarkJSON) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return raw, b
}

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json to what `bench
// -spec` prints — the code's names, units, directions and bounds — byte
// for byte, and the names to the contract's alphabet.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, b := loadBenchmarkJSON(t)
	var spec bytes.Buffer
	printSpec(&spec, b.RunSeconds)
	if !bytes.Equal(raw, spec.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}
	seen := map[string]bool{}
	for _, n := range append(namesOf(endToEnd), layerNames()...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("metric name %q is used twice", n)
		}
		seen[n] = true
	}
}

func namesOf(ms []metricDef) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func layerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.Name)
	}
	return out
}

// TestSmoke runs every workload at toy size — end to end, then traced —
// and checks that each emits exactly the metrics BENCHMARK.json names,
// all finite, with no failed operation. It is what keeps the harness
// from rotting under `make check`.
func TestSmoke(t *testing.T) {
	_, b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/e2e"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // each run has its own directory; the windows are mostly waiting
				c := newRunCtx(w.Name, 3, time.Second, true, t.TempDir(), traced)
				res, err := c.run(&w)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range c.notes {
					t.Errorf("failed operation: %s", n)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", n)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json %q", n, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", n, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must be positive", n, m.Value)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestCompareVerdicts pins -compare's rules: a pair is worse when its
// median moves past the bound, unresolved when the spread is wider than
// the bound or a side has a single run, and a worse pair decides the
// exit code.
func TestCompareVerdicts(t *testing.T) {
	m := endToEnd[1] // sync_best_ms: lower is better
	steady, slower := summarize([]float64{100, 101, 102, 103}), summarize([]float64{160, 161, 162, 163})
	for _, tc := range []struct {
		name string
		p, c summary
		want string
	}{
		{"past the bound", steady, slower, "worse"},
		{"the other way", slower, steady, "better"},
		{"no move", steady, steady, "same"},
		{"wide spread, overlapping", summarize([]float64{50, 100, 150, 200}), steady, "unresolved"},
		{"one run a side", summarize([]float64{100}), summarize([]float64{60}), "unresolved"},
	} {
		if got := verdict(m, tc.p, tc.c); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	write := func(name string, v summary) string {
		f := setsFile{Summary: map[string]map[string]summary{workloads[0].Name: {m.Name: v}}}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", steady)
	if code := runCompare(parent, write("same.json", steady), io.Discard); code != 0 {
		t.Errorf("an unchanged pair made -compare exit %d", code)
	}
	if code := runCompare(parent, write("slower.json", slower), io.Discard); code != 1 {
		t.Errorf("a slower pair made -compare exit %d, want 1", code)
	}
}
