// Command fleetsim is the fleet-scale load generator for the probe
// protocol (ISSUE: "a 100k-probe fleetsim bench"). It boots a
// controller — or a federated coordinator over -shards local shard
// controllers — registers -probes simulated probes, enqueues a fixed
// workload of -tasks-per-probe tasks each, and then drives the fleet
// through the v1 HTTP surface (in-process handlers, real request
// encode/decode, no sockets) until every result is delivered: each
// probe round is ONE POST /api/v1/probes/sync carrying the previous
// round's results plus the next lease ask, and one journal fsync covers
// the whole round (every accepted record fsynced before the ack). After
// the run fleetsim asserts exactly-once completion from the controllers'
// own books — accepted == recorded, zero dedups, zero rejects, zero
// requeues, zero outstanding leases — and exits non-zero on any
// violation.
//
// With -bias it instead runs the scheduler experiment: on 3 seeds it
// builds a deliberately skewed fleet (over half the probes in one
// country), serves a lease-constrained workload once with naive FIFO
// and once with bias-aware coverage targets installed, and asserts the
// scheduler's total-variation skew is lower than naive on every seed.
//
// Results land in -out (default none) under the "fleetsim" / "bias"
// keys of that JSON file, merged so its other keys survive. Timing
// deliberately never calls time.Now directly (internal/obs owns the
// clock); scripts/check.sh extends the determinism lint over this
// package.
//
// Usage:
//
//	go run ./cmd/fleetsim -probes 100000 -duration 60s -out fleet.json
//	go run ./cmd/fleetsim -probes 1000 -duration 5s              # smoke
//	go run ./cmd/fleetsim -probes 20000 -shards 4
//	go run ./cmd/fleetsim -bias -out fleet.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

func main() {
	nProbes := flag.Int("probes", 100000, "simulated fleet size")
	shards := flag.Int("shards", 0, "run a federated coordinator over N local shards (0 = single controller)")
	duration := flag.Duration("duration", 60*time.Second, "time cap (the run ends early once the workload drains)")
	workers := flag.Int("workers", 64, "concurrent client goroutines")
	bias := flag.Bool("bias", false, "run the bias-aware scheduler experiment instead of the load run")
	out := flag.String("out", "", "bench JSON file to merge results into (empty = stdout only)")
	tasksPerProbe := flag.Int("tasks-per-probe", 16, "workload: tasks enqueued per probe")
	syncMax := flag.Int("sync-max", 16, "lease ask (and result batch cap) per round")
	seed := flag.Int64("seed", 42, "fleet layout seed")
	dataDir := flag.String("data-dir", "", "journal root (empty = fresh temp dir, removed on success)")
	flag.Parse()

	if *bias {
		rep, err := runBias(*seed)
		if err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
		if err := writeOut(*out, "bias", rep); err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
		return
	}

	root := *dataDir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "fleetsim")
		if err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
		defer os.RemoveAll(root)
	}

	cfg := loadConfig{
		probes:        *nProbes,
		shards:        *shards,
		duration:      *duration,
		workers:       *workers,
		tasksPerProbe: *tasksPerProbe,
		syncMax:       *syncMax,
		seed:          *seed,
	}
	rep, err := runLoad(root, cfg)
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	outRec := fleetsimRecord{
		Probes:        cfg.probes,
		Shards:        cfg.shards,
		TasksPerProbe: cfg.tasksPerProbe,
		SyncMax:       cfg.syncMax,
		Workers:       cfg.workers,
		Batched:       rep,
	}
	if err := writeOut(*out, "fleetsim", outRec); err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
}

// loadConfig is one load run's shape.
type loadConfig struct {
	probes, shards, workers int
	tasksPerProbe, syncMax  int
	duration                time.Duration
	seed                    int64
}

// loadReport is what the run measured.
type loadReport struct {
	Delivered   int64   `json:"delivered"`
	Requests    int64   `json:"requests"`
	Retried     int64   `json:"retried,omitempty"`
	Seconds     float64 `json:"seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Fsyncs      int64   `json:"fsyncs"`
	FsyncsPerOp float64 `json:"fsyncs_per_op"`
	LeaseP50ms  float64 `json:"lease_p50_ms"`
	LeaseP99ms  float64 `json:"lease_p99_ms"`
	Drained     bool    `json:"drained"`
}

// fleetsimRecord is the "fleetsim" key of the bench JSON file.
type fleetsimRecord struct {
	Probes        int        `json:"probes"`
	Shards        int        `json:"shards,omitempty"`
	TasksPerProbe int        `json:"tasks_per_probe"`
	SyncMax       int        `json:"sync_max"`
	Workers       int        `json:"workers"`
	Batched       loadReport `json:"batched"`
}

// fleetCountries is the synthetic fleet's vantage spread; real country
// codes only so reports read naturally.
var fleetCountries = []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}

// simProbe is one simulated probe's client-side state: its identity and
// the outbox of executed-but-not-yet-accepted results (the in-memory
// stand-in for the durable spool).
type simProbe struct {
	id     string
	outbox []probes.Result
	done   bool
}

// backend is the server under test: the HTTP handler plus the shard
// controllers behind it (for the exactly-once audit).
type backend struct {
	handler http.Handler
	ctrls   []*core.Controller
	coord   *federation.Coordinator
	close   func()
}

func buildBackend(dir string, cfg loadConfig) (*backend, error) {
	dcfg := core.DurabilityConfig{
		Trusted: []string{"fleet"},
		// The run never ticks, so leases must not expire mid-window.
		LeaseTTL: 1 << 30,
	}
	if cfg.shards <= 0 {
		ctrl, err := core.Recover(dir, dcfg)
		if err != nil {
			return nil, err
		}
		return &backend{
			handler: ctrl.Handler(),
			ctrls:   []*core.Controller{ctrl},
			close:   func() { ctrl.Close() },
		}, nil
	}
	coord, err := federation.New("", federation.Config{
		// Generous per-shard deadline: with every worker funneling into
		// one fsync queue, tail waits are contention, not failure.
		QueryDeadline: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	ctrls := make([]*core.Controller, 0, cfg.shards)
	for i := 0; i < cfg.shards; i++ {
		ctrl, err := core.Recover(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), dcfg)
		if err != nil {
			return nil, err
		}
		ctrls = append(ctrls, ctrl)
		if err := coord.AddShard(fmt.Sprintf("shard-%d", i), federation.NewLocalShard(ctrl)); err != nil {
			return nil, err
		}
	}
	return &backend{
		handler: coord.Handler(),
		ctrls:   ctrls,
		coord:   coord,
		close: func() {
			coord.Close()
			for _, c := range ctrls {
				c.Close()
			}
		},
	}, nil
}

// setupFleet registers the fleet and enqueues the workload through the
// in-process Go API (setup is not part of the measured window).
func setupFleet(b *backend, cfg loadConfig) ([]*simProbe, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	fleet := make([]*simProbe, cfg.probes)
	for i := range fleet {
		p := core.ProbeInfo{
			ID:      fmt.Sprintf("p-%06d", i),
			Country: fleetCountries[rng.Intn(len(fleetCountries))],
			ASN:     topology.ASN(36900 + rng.Intn(64)),
			Kind:    "sim",
		}
		var err error
		if b.coord != nil {
			err = b.coord.Register(context.Background(), p)
		} else {
			err = b.ctrls[0].RegisterProbe(p)
		}
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", p.ID, err)
		}
		fleet[i] = &simProbe{id: p.ID}
	}

	// One wave of tasksPerProbe pings per probe, submitted by the
	// trusted "fleet" owner (auto-approved, immediately queued) in
	// bounded chunks so no single journal record balloons.
	const chunk = 20000
	var as []probes.Assignment
	wave := 0
	flush := func() error {
		if len(as) == 0 {
			return nil
		}
		wave++
		var err error
		if b.coord != nil {
			_, err = b.coord.Submit(context.Background(), core.SubmitRequest{
				RequestID: fmt.Sprintf("fleetsim-wave-%d", wave), Owner: "fleet", Description: "fleetsim load", Assignments: as})
		} else {
			_, err = b.ctrls[0].SubmitExperiment("fleet", "fleetsim load", as)
		}
		as = as[:0]
		return err
	}
	for r := 0; r < cfg.tasksPerProbe; r++ {
		for _, p := range fleet {
			as = append(as, probes.Assignment{
				ProbeID: p.id,
				Task:    probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"},
			})
			if len(as) == chunk {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return fleet, nil
}

// runLoad drives the full workload and reports throughput, latency, and
// fsync cost.
func runLoad(dir string, cfg loadConfig) (loadReport, error) {
	log.Printf("fleetsim: booting (probes=%d shards=%d tasks/probe=%d)",
		cfg.probes, cfg.shards, cfg.tasksPerProbe)
	b, err := buildBackend(dir, cfg)
	if err != nil {
		return loadReport{}, err
	}
	defer b.close()
	fleet, err := setupFleet(b, cfg)
	if err != nil {
		return loadReport{}, err
	}
	target := int64(cfg.probes) * int64(cfg.tasksPerProbe)
	baseFsyncs := sumDurability(b.ctrls, "journal_records_appended")

	reg := obs.NewRegistry()
	var delivered, requests, retried atomic.Int64
	var timeUp atomic.Bool
	stopTimer := time.NewTimer(cfg.duration)
	defer stopTimer.Stop()
	go func() {
		<-stopTimer.C
		timeUp.Store(true)
	}()

	nw := cfg.workers
	if nw > len(fleet) {
		nw = len(fleet)
	}
	w := &driver{
		handler:   b.handler,
		reg:       reg,
		syncMax:   cfg.syncMax,
		delivered: &delivered,
		requests:  &requests,
		retried:   &retried,
	}
	wall := obs.StartTimer()
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		lo, hi := i*len(fleet)/nw, (i+1)*len(fleet)/nw
		wg.Add(1)
		go func(mine []*simProbe) {
			defer wg.Done()
			for {
				live := 0
				for _, p := range mine {
					if p.done {
						continue
					}
					if timeUp.Load() || delivered.Load() >= target {
						return
					}
					w.visit(p)
					live++
				}
				if live == 0 {
					return
				}
			}
		}(fleet[lo:hi])
	}
	wg.Wait()
	elapsed := wall.Elapsed()

	rep := loadReport{
		Delivered: delivered.Load(),
		Requests:  requests.Load(),
		Retried:   retried.Load(),
		Seconds:   round2(elapsed.Seconds()),
		Fsyncs:    sumDurability(b.ctrls, "journal_records_appended") - baseFsyncs,
		Drained:   delivered.Load() >= target,
	}
	if elapsed > 0 {
		rep.OpsPerSec = round2(float64(rep.Delivered) / elapsed.Seconds())
	}
	if rep.Delivered > 0 {
		rep.FsyncsPerOp = round2(float64(rep.Fsyncs) / float64(rep.Delivered))
	}
	if s, ok := reg.Snapshots()[`fleetsim_request_seconds{op="sync"}`]; ok {
		rep.LeaseP50ms = round2(float64(s.P50) / float64(time.Millisecond))
		rep.LeaseP99ms = round2(float64(s.P99) / float64(time.Millisecond))
	}
	log.Printf("fleetsim: delivered %d/%d in %.2fs — %.0f ops/sec, %.2f fsyncs/op, lease p50=%.2fms p99=%.2fms (requests=%d retried=%d)",
		rep.Delivered, target, rep.Seconds, rep.OpsPerSec, rep.FsyncsPerOp,
		rep.LeaseP50ms, rep.LeaseP99ms, rep.Requests, rep.Retried)

	if err := auditExactlyOnce(b.ctrls, rep.Delivered, rep.Drained); err != nil {
		return rep, err
	}
	if !rep.Drained {
		log.Printf("fleetsim: WARNING: time cap hit with %d/%d delivered (exactly-once still held)",
			rep.Delivered, target)
	}
	return rep, nil
}

// auditExactlyOnce cross-checks the client-side accepted count against
// the controllers' own books: every delivery recorded exactly once,
// nothing deduped, rejected, or requeued, and — when the workload fully
// drained — no lease left open for an executed task. A -duration cap
// that stops the fleet mid-round leaves leases legitimately open, so
// that check only applies to drained runs.
func auditExactlyOnce(ctrls []*core.Controller, delivered int64, drained bool) error {
	var recorded, deduped, rejected, requeued int64
	leases := 0
	for _, c := range ctrls {
		st := c.Stats()
		recorded += st.Counters["results_recorded"]
		deduped += st.Counters["results_deduped"]
		rejected += st.Counters["results_rejected"]
		requeued += st.Counters["tasks_requeued"]
		leases += st.OutstandingLeases
	}
	switch {
	case recorded != delivered:
		return fmt.Errorf("exactly-once violated: client saw %d accepted, controllers recorded %d", delivered, recorded)
	case deduped != 0:
		return fmt.Errorf("exactly-once violated: %d results deduped (duplicate delivery)", deduped)
	case rejected != 0:
		return fmt.Errorf("%d results rejected", rejected)
	case requeued != 0:
		return fmt.Errorf("%d tasks requeued mid-run (lease expiry should be impossible here)", requeued)
	case drained && leases != 0:
		return fmt.Errorf("%d leases still outstanding after the fleet drained", leases)
	}
	log.Printf("fleetsim: exactly-once audit passed (recorded=%d deduped=0 rejected=0 requeued=0 leases=%d)", recorded, leases)
	return nil
}

func sumDurability(ctrls []*core.Controller, key string) int64 {
	var n int64
	for _, c := range ctrls {
		n += c.DurabilityCounters()[key]
	}
	return n
}

// driver issues v1 API requests against the in-process handler,
// recording per-op latency in its registry.
type driver struct {
	handler                      http.Handler
	reg                          *obs.Registry
	syncMax                      int
	delivered, requests, retried *atomic.Int64
}

// do runs one request through the handler and decodes a 200 response
// into out. Non-200s (admission sheds, shard faults) return the status
// for the caller to retry on a later visit.
func (d *driver) do(op, method, path string, body, out any) int {
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			log.Fatalf("fleetsim: marshal %s: %v", op, err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	t := obs.StartTimer()
	d.handler.ServeHTTP(rec, req)
	d.reg.Hist("fleetsim_request_seconds", "op", op).Observe(t.Elapsed())
	d.requests.Add(1)
	if rec.Code != http.StatusOK {
		d.retried.Add(1)
		return rec.Code
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			log.Fatalf("fleetsim: decode %s: %v", op, err)
		}
	}
	return rec.Code
}

// visit runs one probe round: previous results + lease ask in one sync.
// A failed round keeps the outbox (the durable-spool contract) and
// retries on the next visit.
func (d *driver) visit(p *simProbe) {
	n := len(p.outbox)
	if n > d.syncMax {
		n = d.syncMax
	}
	req := core.SyncRequest{ProbeID: p.id, Results: p.outbox[:n], Max: d.syncMax}
	var resp core.SyncResponse
	if d.do("sync", http.MethodPost, "/api/v1/probes/sync", req, &resp) != http.StatusOK {
		return
	}
	d.delivered.Add(int64(resp.Accepted))
	p.outbox = append(p.outbox[:0], p.outbox[n:]...)
	if len(resp.Tasks) == 0 && len(p.outbox) == 0 {
		p.done = true
		return
	}
	for _, t := range resp.Tasks {
		p.outbox = append(p.outbox, execute(t))
	}
}

// execute fabricates a task's result; fleetsim measures the control
// plane, not the measurement itself.
func execute(t probes.Task) probes.Result {
	return probes.Result{
		TaskID:     t.ID,
		Experiment: t.Experiment,
		Kind:       t.Kind,
		OK:         true,
		RTTms:      42,
	}
}

// --- bias experiment ---------------------------------------------------

// biasSeedReport is one seed's naive-vs-scheduled comparison.
type biasSeedReport struct {
	Seed        int64   `json:"seed"`
	NaiveSkew   float64 `json:"naive_skew"`
	BiasedSkew  float64 `json:"biased_skew"`
	ReductionPc float64 `json:"reduction_pct"`
}

// biasRecord is the "bias" key of the bench JSON file.
type biasRecord struct {
	Probes      int              `json:"probes"`
	SkewedShare float64          `json:"skewed_share"`
	Rounds      int              `json:"rounds"`
	Seeds       []biasSeedReport `json:"seeds"`
}

// runBias quantifies the scheduler's effect: a fleet with most probes
// in one country serves a lease-constrained workload; total-variation
// skew of the served mix vs uniform-country targets is scored for naive
// FIFO and for the bias-aware scheduler. Lower is better; the run fails
// unless the scheduler wins on every seed.
func runBias(seed int64) (biasRecord, error) {
	const (
		nProbes     = 240
		skewedShare = 0.55 // share of the fleet in the overrepresented country
		rounds      = 6
		perLease    = 4
		perWave     = 3 // tasks enqueued per probe per round
	)
	targets := uniformTargets()
	rec := biasRecord{Probes: nProbes, SkewedShare: skewedShare, Rounds: rounds}
	for _, s := range []int64{seed, seed + 1, seed + 2} {
		naive := serveSkewedFleet(s, nProbes, skewedShare, rounds, perLease, perWave, core.CoverageTargets{})
		biased := serveSkewedFleet(s, nProbes, skewedShare, rounds, perLease, perWave, targets)
		nSkew := core.CoverageSkew(naive.Country, naive.ServedTotal, targets.Country)
		bSkew := core.CoverageSkew(biased.Country, biased.ServedTotal, targets.Country)
		sr := biasSeedReport{Seed: s, NaiveSkew: round4(nSkew), BiasedSkew: round4(bSkew)}
		if nSkew > 0 {
			sr.ReductionPc = round2((nSkew - bSkew) / nSkew * 100)
		}
		log.Printf("fleetsim: bias seed=%d naive_skew=%.4f biased_skew=%.4f (%.1f%% lower)",
			s, nSkew, bSkew, sr.ReductionPc)
		if bSkew >= nSkew {
			return rec, fmt.Errorf("bias scheduler did not reduce skew on seed %d (naive %.4f, biased %.4f)", s, nSkew, bSkew)
		}
		rec.Seeds = append(rec.Seeds, sr)
	}
	return rec, nil
}

// uniformTargets is the experiment's target mix: every fleet country
// deserves an equal share of served tasks.
func uniformTargets() core.CoverageTargets {
	t := core.CoverageTargets{Country: make(map[string]float64, len(fleetCountries))}
	for _, c := range fleetCountries {
		t.Country[c] = 1.0 / float64(len(fleetCountries))
	}
	return t
}

// serveSkewedFleet runs the lease-constrained workload on one in-memory
// controller and returns its coverage book. The fleet is skewed: around
// skewedShare of the probes sit in fleetCountries[0]; fresh task waves
// outpace lease capacity so every class always has queued work and the
// served mix is the scheduler's choice, not the queue's.
func serveSkewedFleet(seed int64, nProbes int, skewedShare float64, rounds, perLease, perWave int, targets core.CoverageTargets) core.CoverageReport {
	rng := rand.New(rand.NewSource(seed))
	ctrl := core.NewController("fleet")
	ctrl.LeaseTTL = 1 << 30
	if len(targets.Country) > 0 || len(targets.ASN) > 0 {
		ctrl.ConfigureCoverage(targets)
	}
	ids := make([]string, nProbes)
	for i := range ids {
		country := fleetCountries[0]
		if rng.Float64() >= skewedShare {
			country = fleetCountries[1+rng.Intn(len(fleetCountries)-1)]
		}
		ids[i] = fmt.Sprintf("b-%04d", i)
		if err := ctrl.RegisterProbe(core.ProbeInfo{
			ID: ids[i], Country: country,
			ASN: topology.ASN(36900 + rng.Intn(16)), Kind: "sim",
		}); err != nil {
			log.Fatalf("fleetsim: bias register: %v", err)
		}
	}
	wave := func() {
		as := make([]probes.Assignment, 0, nProbes*perWave)
		for _, id := range ids {
			for j := 0; j < perWave; j++ {
				as = append(as, probes.Assignment{
					ProbeID: id,
					Task:    probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"},
				})
			}
		}
		if _, err := ctrl.SubmitExperiment("fleet", "bias wave", as); err != nil {
			log.Fatalf("fleetsim: bias wave: %v", err)
		}
	}
	for r := 0; r < rounds; r++ {
		wave()
		// Seeded visiting order: probe arrival order must not encode the
		// country mix.
		order := rng.Perm(nProbes)
		for _, i := range order {
			ctrl.LeaseTasks(ids[i], perLease)
		}
	}
	return ctrl.Coverage()
}

// --- output -------------------------------------------------------------

// writeOut merges one top-level key into the -out JSON file without
// disturbing its other keys, then echoes the record to stdout.
func writeOut(path, key string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", key, raw)
	if path == "" {
		return nil
	}
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	doc[key] = raw
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }
func round4(f float64) float64 { return float64(int(f*10000+0.5)) / 10000 }
