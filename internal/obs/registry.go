package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry collects histogram series and counter and gauge families for
// exposition. Each is created once (get-or-create under a mutex); callers
// cache the pointer and update it without touching the registry.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*histSeries
	fams  map[string]*Family
}

// histSeries is one histogram plus its exposition identity: a metric
// family name and rendered label pairs.
type histSeries struct {
	family string
	labels string // rendered `k="v",...`, "" when unlabeled
	h      *Histogram
}

// Family is one counter or gauge family of a registry: named int64 values,
// each rendered as family{name="..."}, safe for concurrent use. A gauge
// holds readings that go down. A name once touched, even by Add(name, 0),
// stays in Snapshot. Owners that share a registry share its families.
type Family struct {
	name  string
	gauge bool
	mu    sync.Mutex
	vals  map[string]int64
}

// Add moves the named value by delta (creating it at zero first).
func (f *Family) Add(name string, delta int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.vals[name] += delta
}

// Inc is Add(name, 1).
func (f *Family) Inc(name string) { f.Add(name, 1) }

// Set replaces the named value: a gauge's reading.
func (f *Family) Set(name string, v int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.vals[name] = v
}

// Get returns the named value (zero when never touched).
func (f *Family) Get(name string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.vals[name]
}

// Snapshot returns a copy of every touched value.
func (f *Family) Snapshot() map[string]int64 { return Union(f) }

// Union is the values of several families in one map: what an owner's
// accessor returns when it keeps a counter and a gauge family.
func Union(fams ...*Family) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range fams {
		f.mu.Lock()
		for k, v := range f.vals {
			out[k] = v
		}
		f.mu.Unlock()
	}
	return out
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*histSeries), fams: make(map[string]*Family)}
}

// Hist returns the histogram for the given metric family and label
// pairs ("k1", "v1", "k2", "v2", ...), creating it on first use. The
// same (family, labels) always yields the same *Histogram.
func (r *Registry) Hist(family string, labelPairs ...string) *Histogram {
	labels := renderLabels(labelPairs)
	key := family + "\x00" + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.hists[key]; ok {
		return s.h
	}
	s := &histSeries{family: family, labels: labels, h: &Histogram{}}
	r.hists[key] = s
	return s.h
}

// Counters returns the counter family of that name, creating it on first
// use; it renders as `# TYPE family counter`.
func (r *Registry) Counters(family string) *Family { return r.family(family, false) }

// Gauges returns the gauge family of that name, creating it on first use;
// it renders as `# TYPE family gauge`.
func (r *Registry) Gauges(family string) *Family { return r.family(family, true) }

// family gets or creates a family; the call that creates it fixes its kind.
func (r *Registry) family(name string, gauge bool) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &Family{name: name, gauge: gauge, vals: make(map[string]int64)}
		r.fams[name] = f
	}
	return f
}

func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	return b.String()
}

// series renders a metric line name: family{labels} or family{extra}
// merged with the series labels.
func seriesName(family, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return family
	case labels == "":
		return family + "{" + extra + "}"
	case extra == "":
		return family + "{" + labels + "}"
	default:
		return family + "{" + labels + "," + extra + "}"
	}
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// Snapshots returns every histogram series' snapshot keyed by its
// rendered name (family{labels}), for logging and tests.
func (r *Registry) Snapshots() map[string]HistSnapshot {
	r.mu.Lock()
	series := make([]*histSeries, 0, len(r.hists))
	for _, s := range r.hists {
		series = append(series, s)
	}
	r.mu.Unlock()
	out := make(map[string]HistSnapshot, len(series))
	for _, s := range series {
		out[seriesName(s.family, s.labels, "")] = s.h.Snapshot()
	}
	return out
}

// WritePrometheus renders every histogram series, then every counter and
// gauge family, in Prometheus text format. Output ordering is
// deterministic: families sorted by name, then series by label string.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	series := make([]*histSeries, 0, len(r.hists))
	for _, s := range r.hists {
		series = append(series, s)
	}
	fams := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	sort.Slice(series, func(i, j int) bool {
		if series[i].family != series[j].family {
			return series[i].family < series[j].family
		}
		return series[i].labels < series[j].labels
	})
	lastFamily := ""
	for _, s := range series {
		if s.family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", s.family); err != nil {
				return err
			}
			lastFamily = s.family
		}
		snap := s.h.Snapshot()
		for _, b := range snap.Buckets {
			le := "+Inf"
			if b.Bound != 0 {
				le = formatSeconds(b.Bound)
			}
			name := seriesName(s.family+"_bucket", s.labels, `le="`+le+`"`)
			if _, err := fmt.Fprintf(w, "%s %d\n", name, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(s.family+"_sum", s.labels, ""), formatSeconds(snap.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(s.family+"_count", s.labels, ""), snap.Count); err != nil {
			return err
		}
	}

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		kind := "counter"
		if f.gauge {
			kind = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, kind); err != nil {
			return err
		}
		vals := f.Snapshot()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, `name=`+strconv.Quote(k), ""), vals[k]); err != nil {
				return err
			}
		}
	}
	return nil
}
