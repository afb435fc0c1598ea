package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setsFile is what -sets writes and -compare reads: every run made, and
// per (workload, metric) the median and the spread between the runs.
type setsFile struct {
	NProc   int                           `json:"nproc"`
	Go      string                        `json:"go"`
	Seconds int                           `json:"seconds"`
	Trace   int                           `json:"trace"`
	Runs    []setRun                      `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"` // workload → metric
}

type setRun struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	WallS    float64   `json:"wall_s"`
	Result   runResult `json:"result"`
}

// summary is one (workload, metric) pair over the sets: Spread is the
// distance between the first and third quartile as a share of the
// median, the way Python's statistics.quantiles(values, n=4) cuts them.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

// quartiles is statistics.quantiles(values, n=4) with its default
// (exclusive) method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(values []float64) summary {
	q1, q2, q3 := quartiles(values)
	s := summary{Values: values, Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		s.Spread = (q3 - q1) / q2
	}
	return s
}

// runSets runs `sets` sets of every workload, each run in a fresh
// subprocess with seed, seed+1, …, prints each run's metrics, and with
// more than one set the spread observed between them.
func runSets(sets int, seed int64, seconds, trace int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	file := setsFile{NProc: runtime.NumCPU(), Go: runtime.Version(), Seconds: seconds, Trace: trace,
		Summary: map[string]map[string]summary{}}
	code := 0
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			t0 := time.Now()
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(s), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			wall := time.Since(t0).Seconds()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d printed no result: %v\n%s", w.Name, seed+int64(s), runErr, stdout.String())
				code = 1
				continue
			}
			if sets == 1 || !res.Correct {
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			}
			fmt.Printf("set %d %-14s seed %d wall %.1fs attempted %d failed %d correct %v\n",
				s, w.Name, seed+int64(s), wall, res.Attempted, res.Failed, res.Correct)
			if !res.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, setRun{Workload: w.Name, Seed: seed + int64(s), WallS: wall, Result: res})
		}
	}
	values := map[string]map[string][]float64{}
	for _, r := range file.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	for w, byMetric := range values {
		file.Summary[w] = map[string]summary{}
		for name, vs := range byMetric {
			file.Summary[w][name] = summarize(vs)
		}
	}
	if sets > 1 && trace == 0 {
		printSpread(os.Stdout, file)
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	return code
}

// printSpread is the steadiness table: per pair the median and the
// quartile spread next to the bound it has to stay inside.
func printSpread(w io.Writer, file setsFile) {
	fmt.Fprintf(w, "\n%-14s %-20s %14s %8s %6s\n", "workload", "metric", "median", "spread", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			s, ok := file.Summary[wl.Name][m.Name]
			if !ok {
				continue
			}
			flag := ""
			if m.Name != "setup_s" && s.Spread > m.Bound {
				flag = "  > bound"
			} else if m.Name != "setup_s" && s.Spread > m.Bound/3 {
				flag = "  > bound/3"
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %7.1f%% %5.0f%%%s\n", wl.Name, m.Name, s.Median, 100*s.Spread, 100*m.Bound, flag)
		}
	}
}

// runCompare prints one row per (workload, end-to-end metric): both
// medians, the change's ratio to the parent, the bound, and a verdict.
// A pair whose recorded spread is wider than its bound is unresolved
// unless every run of one side beats every run of the other; so is a
// pair with fewer than two runs on a side, which records no spread.
// Exit code 1 when any pair is worse.
func runCompare(parentPath, changePath string, w io.Writer) int {
	load := func(path string) setsFile {
		var f setsFile
		raw, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.Unmarshal(raw, &f); err != nil {
			fatalf("%s: %v", path, err)
		}
		return f
	}
	parent, change := load(parentPath), load(changePath)
	worse := 0
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %18s %6s %8s  %s\n",
		"workload", "metric", "parent", "change", "change/parent", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			p, okp := parent.Summary[wl.Name][m.Name]
			c, okc := change.Summary[wl.Name][m.Name]
			if !okp || !okc {
				continue
			}
			v := verdict(m, p, c)
			if v == "worse" {
				worse++
			}
			spread := max(p.Spread, c.Spread)
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %9.3f of %-6.4g %5.0f%% %7.1f%%  %s\n",
				wl.Name, m.Name, p.Median, c.Median, c.Median/p.Median, p.Median, 100*m.Bound, 100*spread, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d pair(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

// verdict judges one pair. rel is how much worse the change's median
// is, as a share of the parent's.
func verdict(m metricDef, p, c summary) string {
	rel := (c.Median - p.Median) / p.Median
	beats := func(a, b []float64) bool { // every a better than every b
		for _, x := range a {
			for _, y := range b {
				if (m.Better == "lower" && x >= y) || (m.Better == "higher" && x <= y) {
					return false
				}
			}
		}
		return true
	}
	if m.Better == "higher" {
		rel = -rel
	}
	spread := max(p.Spread, c.Spread)
	switch {
	case len(p.Values) < 2 || len(c.Values) < 2:
		return "unresolved" // one run a side records no spread
	case spread > m.Bound && beats(c.Values, p.Values):
		return "better"
	case spread > m.Bound && beats(p.Values, c.Values):
		return "worse"
	case spread > m.Bound:
		return "unresolved"
	case rel > m.Bound:
		return "worse"
	case rel < -p.Spread && rel < 0:
		return "better"
	}
	return "same"
}
