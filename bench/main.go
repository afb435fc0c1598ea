// Command bench is the observatory's one benchmark: three seeded
// workloads, nine end-to-end metrics, and a per-layer budget read from
// outside the program. See README.md in this directory.
//
//	go run ./bench                                  # one set: every workload
//	go run ./bench -workload fleet_sync -seed 7     # one workload, one run
//	go run ./bench -workload fleet_sync -trace 1    # its traced run
//	go run ./bench -sets 10 -out parent.json        # ten sets, spread recorded
//	go run ./bench -compare parent.json change.json
//
// A single-workload run prints a report and, as the last line of
// standard output, one JSON object: correct, attempted, failed and the
// metrics — every end-to-end metric with -trace 0, every per-layer
// metric with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"
)

var processStart = time.Now()

// outDir is where a run keeps its scratch state and span files. It is
// relative to the working directory, which is the repository root under
// `go run ./bench`, and listed in bench/.gitignore.
const outDir = "bench/out"

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a single-workload run.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: one set of all of them, each in a fresh subprocess)")
	seed := flag.Int64("seed", 1, "seeds fleet layout, result mix and query parameters")
	seconds := flag.Int("seconds", 16, "how long a run measures: a fixed-work fill sized to a quarter of it, then a window of three quarters")
	trace := flag.Int("trace", 0, "1 = the traced run: spans and per-layer metrics in place of the end-to-end metrics")
	sets := flag.Int("sets", 1, "without -workload: how many sets to run")
	out := flag.String("out", "", "without -workload: write every run and the observed spread to this file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare parent.json change.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as spec.go defines it")
	flag.Parse()
	// The controllers log slow requests; the report has them already.
	log.SetOutput(io.Discard)

	switch {
	case *spec:
		printSpec(os.Stdout, *seconds)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare parent.json change.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *workload == "":
		os.Exit(runSets(*sets, *seed, *seconds, *trace, *out))
	}

	w := findWorkload(*workload)
	if w == nil {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(outDir, "run-"+w.Name+"-")
	if err != nil {
		fatalf("%v", err)
	}
	c := newRunCtx(w.Name, *seed, time.Duration(*seconds)*time.Second, false, dir, *trace == 1)
	res, err := c.run(w)
	c.cleanup()
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	c.report(os.Stdout, res)
	if c.tr != nil {
		path := filepath.Join(outDir, "trace-"+w.Name+".json")
		if err := c.tr.write(path); err != nil {
			fatalf("%v", err)
		}
	} else if err := c.saveUntraced(); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func newRunCtx(workload string, seed int64, window time.Duration, toy bool, dir string, traced bool) *runCtx {
	c := &runCtx{
		workload: workload, seed: seed, window: window, toy: toy, dir: dir, start: processStart,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		c.tr = newTracer()
	}
	return c
}

// run executes the workload's lifecycle, then assembles the result:
// every end-to-end metric untraced, every per-layer metric traced.
func (c *runCtx) run(w *workloadDef) (runResult, error) {
	res := runResult{Metrics: map[string]metricValue{}}
	if err := c.lifecycle(w.shape); err != nil {
		return res, err
	}
	if c.tr == nil {
		for _, m := range endToEnd {
			v, ok := c.e2e[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				c.fail("metric %s has no usable value (%v)", m.Name, v)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	} else {
		c.procLayers()
		for _, m := range perLayer {
			v := c.layer[m.Name] // a layer the workload left idle reads 0
			if math.IsNaN(v) || math.IsInf(v, 0) {
				c.fail("layer metric %s is not finite", m.Name)
				v = 0
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	if c.attempted == 0 {
		c.fail("no operation was attempted")
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0
	return res, nil
}

// report prints every metric by name with its unit, then what failed.
func (c *runCtx) report(w io.Writer, res runResult) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d\n", c.workload, c.seed, int(c.window.Seconds()))
	for _, l := range c.info {
		fmt.Fprintf(w, "  %s\n", l)
	}
	if c.tr == nil {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-24s %14.4f %-5s (%s better)\n", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Better)
		}
	} else {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-38s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d\n", res.Attempted, res.Failed)
	for _, n := range c.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

// untracedPath is where an end-to-end run leaves its fill rate for a
// later traced run of the same workload to compare with.
func untracedPath(workload string) string {
	return filepath.Join(outDir, "e2e-"+workload+".json")
}

func (c *runCtx) saveUntraced() error {
	raw, err := json.Marshal(c.layer["client.results_per_s"])
	if err != nil {
		return err
	}
	return os.WriteFile(untracedPath(c.workload), raw, 0o644)
}

// traceOverhead compares the traced run's fill rate with the last
// end-to-end run of the same workload: how much slower tracing made
// it, in percent. Without an end-to-end run on record it reads 0.
func (c *runCtx) traceOverhead(traced float64) {
	var untraced float64
	raw, err := os.ReadFile(untracedPath(c.workload))
	if err != nil || json.Unmarshal(raw, &untraced) != nil || untraced <= 0 {
		return
	}
	c.layer["trace_overhead_pct"] = 100 * (untraced - traced) / untraced
	c.infof("trace overhead: %.1f results/s traced, %.1f untraced", traced, untraced)
}

// printSpec renders spec.go as BENCHMARK.json.
func printSpec(w io.Writer, seconds int) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: seconds}
	for _, x := range workloads {
		doc.Workloads = append(doc.Workloads, wl{x.Name, x.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(w, string(raw))
}
