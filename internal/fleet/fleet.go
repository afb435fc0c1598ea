// Package fleet drives a simulated probe fleet against a controller or a
// federated coordinator through the v1 HTTP surface, in process. Every
// simulated probe runs the field probe's own loop, core.DrainWithSync
// over a spool; only the measurement is made up. Audit checks
// exactly-once completion against the controllers' own books.
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// owner submits the fleet's workload; Boot trusts it, so every wave is
// approved and queued at once.
const owner = "fleet"

// Countries is the synthetic fleet's vantage spread.
var Countries = []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}

// System is the server a fleet drives. Ctrls are the controllers whose
// books Audit reads: the one controller, or every shard's as booted.
type System struct {
	Backend core.Backend
	Handler http.Handler
	Ctrls   []*core.Controller
	Close   func()
}

// Boot starts the system under dir through core.Recover, as obsd starts
// a durable deployment: one controller when shards is 0, else a
// coordinator over that many local shards (federation.BootLocal).
func Boot(dir string, shards int) (*System, error) {
	cfg := core.DurabilityConfig{Trusted: []string{owner}}
	if shards <= 0 {
		ctrl, err := core.Recover(dir, cfg)
		if err != nil {
			return nil, err
		}
		return &System{ctrl.Backend(), ctrl.Handler(), []*core.Controller{ctrl}, func() { ctrl.Close() }}, nil
	}
	// Generous per-shard deadline: with every worker funneling into one
	// fsync queue, tail waits are contention, not failure.
	l, err := federation.BootLocal(dir, shards, cfg, federation.Config{QueryDeadline: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	sys := &System{Backend: l, Handler: l.Handler(), Close: func() { l.Close() }}
	for _, ls := range l.Shards {
		sys.Ctrls = append(sys.Ctrls, ls.Controller())
	}
	return sys, nil
}

// inProcess is an http.RoundTripper that serves each request with h on
// the calling goroutine: the client's whole path, over no socket.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// Config is one fleet's shape: Probes probes with TasksPerProbe pings
// each, driven by Workers goroutines; Seed lays the fleet out.
type Config struct {
	Probes, TasksPerProbe, Workers int
	Seed                           int64
}

// probe is one simulated probe: a spool, and a runner that makes up each
// task's result — a fleet measures the control plane, not the
// measurement.
type probe struct {
	id      string
	spool   core.MemSpool
	drained bool // the last visit ended with the queue and the spool empty
}

func (p *probe) ID() string { return p.id }

func (p *probe) RunTasks(ts []probes.Task, sink probes.ResultSink) (int, error) {
	for i, t := range ts {
		if err := sink.Append(probes.Result{TaskID: t.ID, Experiment: t.Experiment, ProbeID: p.id, Kind: t.Kind, OK: true, RTTms: 42}); err != nil {
			return i, err
		}
	}
	return len(ts), nil
}

// Fleet is a set of simulated probes and the workers that drive them.
// Worker i visits its own slice of the probes through Clients[i]: one
// client per worker, not per probe, since a client's jitter source alone
// is ~5 KB. Obs holds the clients' latency, obs_client_seconds{call=...},
// and their one resilience family, obs_probe_resilience_total: every
// client's ResilienceCounters is the whole fleet's.
type Fleet struct {
	Clients  []*core.Client
	Obs      *obs.Registry
	all      []*probe
	executed atomic.Int64
}

// ProbeID is the id New registers the i-th probe under.
func ProbeID(i int) string { return fmt.Sprintf("p-%06d", i) }

// New registers cfg.Probes probes with b, enqueues cfg.TasksPerProbe
// pings for each in waves small enough that no journal record balloons,
// and returns the fleet that drives them over h.
func New(b core.Backend, h http.Handler, cfg Config) (*Fleet, error) {
	const wave = 20000
	rng := rand.New(rand.NewSource(cfg.Seed))
	all := make([]*probe, cfg.Probes)
	var as []probes.Assignment
	for i := range all {
		all[i] = &probe{id: ProbeID(i)}
		info := core.ProbeInfo{ID: all[i].id, Country: Countries[rng.Intn(len(Countries))], ASN: topology.ASN(36900 + rng.Intn(64)), Kind: "sim"}
		if err := b.Register(context.Background(), info); err != nil {
			return nil, fmt.Errorf("register %s: %w", info.ID, err)
		}
		for range cfg.TasksPerProbe {
			as = append(as, probes.Assignment{ProbeID: info.ID, Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"}})
		}
		if len(as) >= wave || (len(as) > 0 && i == len(all)-1) {
			if _, err := b.Submit(context.Background(), core.SubmitRequest{Owner: owner, Description: "fleet load", Assignments: as}); err != nil {
				return nil, err
			}
			as = nil // the backend keeps the slice
		}
	}
	f := &Fleet{Obs: obs.NewRegistry(), all: all}
	for i := range min(max(cfg.Workers, 1), max(len(all), 1)) {
		cl := core.NewClientSeeded("http://fleet", cfg.Seed+int64(i))
		cl.HTTP = &http.Client{Transport: inProcess{h}}
		cl.Obs = f.Obs
		cl.Sleep = func(time.Duration) {} // a retry goes again at once: no pacing
		f.Clients = append(f.Clients, cl)
	}
	return f, nil
}

// pass has the workers take their probes in order, in parallel: each
// visits every probe (all) or only the undrained ones, until stop. A
// visit is the field probe's drain loop. It returns how many probes are
// left undrained.
func (f *Fleet) pass(all bool, stop func() bool) int64 {
	var wg sync.WaitGroup
	var left atomic.Int64
	nw, np := len(f.Clients), len(f.all)
	for i, cl := range f.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range f.all[i*np/nw : (i+1)*np/nw] {
				if (all || !p.drained) && !stop() {
					ran, err := core.DrainWithSync(cl, p, &p.spool, 0)
					f.executed.Add(int64(ran))
					p.drained = err == nil
				}
				if !p.drained {
					left.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return left.Load()
}

// Round visits every probe once: each drains its queue and spool, or,
// with nothing to do, sends the one sync that is its heartbeat.
func (f *Fleet) Round() { f.pass(true, func() bool { return false }) }

// Report is what a Run did: Executed counts the results the probes made
// up over the fleet's life, and Drained that no probe has work left.
type Report struct {
	Executed int64
	Elapsed  time.Duration
	Drained  bool
}

// Run visits probes until every one has drained, or until limit has
// passed: a probe whose visit failed keeps its spool and goes again.
func (f *Fleet) Run(limit time.Duration) Report {
	wall := obs.StartTimer()
	capped := func() bool { return wall.Elapsed() >= limit }
	left := int64(1)
	for left > 0 && !capped() {
		left = f.pass(false, capped)
	}
	return Report{f.executed.Load(), wall.Elapsed(), left == 0}
}

// Audit checks exactly-once completion against the controllers' own
// books: no result waits in a spool, every result the probes made was
// recorded, nothing was deduplicated, rejected, requeued or moved to
// another probe, and — once every probe has drained — no lease is open.
// A run stopped by its time cap may leave leases open.
func (f *Fleet) Audit(ctrls []*core.Controller) error {
	drained := true
	for _, p := range f.all {
		if n := p.spool.Len(); n != 0 {
			return fmt.Errorf("probe %s still spools %d results", p.id, n)
		}
		drained = drained && p.drained
	}
	sum := map[string]int64{}
	leases := 0
	for _, c := range ctrls {
		st := c.Stats()
		leases += st.OutstandingLeases
		for k, v := range st.Counters {
			sum[k] += v
		}
	}
	if executed := f.executed.Load(); sum["results_recorded"] != executed {
		return fmt.Errorf("probes executed %d results, controllers recorded %d", executed, sum["results_recorded"])
	}
	for _, k := range []string{"results_deduped", "results_rejected", "tasks_requeued", "tasks_reassigned"} {
		if sum[k] != 0 {
			return fmt.Errorf("%s = %d, want 0", k, sum[k])
		}
	}
	if drained && leases != 0 {
		return fmt.Errorf("%d leases open after the fleet drained", leases)
	}
	return nil
}
