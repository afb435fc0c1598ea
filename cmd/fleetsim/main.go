// Command fleetsim is the fleet-scale load generator for the probe
// protocol. It boots a controller, or a coordinator over -shards local
// shards, and drives -probes simulated probes with -tasks-per-probe
// tasks each until every result is delivered (internal/fleet): each
// probe runs core.DrainWithSync, the field probe's own loop, over the v1
// HTTP surface in process. It prints the run's JSON record, then exits
// non-zero if the exactly-once audit fails.
//
// With -bias it instead runs the scheduler experiment: on 3 seeds it
// builds a deliberately skewed fleet (over half the probes in one
// country), serves a lease-constrained workload once with naive FIFO
// and once with bias-aware coverage targets installed, and asserts the
// scheduler's total-variation skew is lower than naive on every seed.
//
// Usage:
//
//	go run ./cmd/fleetsim -probes 100000 -duration 60s
//	go run ./cmd/fleetsim -probes 20000 -shards 4
//	go run ./cmd/fleetsim -bias
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/fleet"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

func main() {
	nProbes := flag.Int("probes", 100000, "simulated fleet size")
	shards := flag.Int("shards", 0, "run a federated coordinator over N local shards (0 = single controller)")
	duration := flag.Duration("duration", 60*time.Second, "time cap (the run ends early once the workload drains)")
	workers := flag.Int("workers", 64, "concurrent client goroutines")
	bias := flag.Bool("bias", false, "run the bias-aware scheduler experiment instead of the load run")
	tasksPerProbe := flag.Int("tasks-per-probe", 16, "workload: tasks enqueued per probe")
	seed := flag.Int64("seed", 42, "fleet layout seed")
	dataDir := flag.String("data-dir", "", "journal root (empty = fresh temp dir, removed on success)")
	flag.Parse()

	if *bias {
		rep, err := runBias(*seed)
		if err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
		emit("bias", rep)
		return
	}
	root := *dataDir
	if root == "" {
		var err error
		if root, err = os.MkdirTemp("", "fleetsim"); err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
		defer os.RemoveAll(root)
	}
	log.Printf("fleetsim: booting (probes=%d shards=%d tasks/probe=%d)", *nProbes, *shards, *tasksPerProbe)
	sys, err := fleet.Boot(root, *shards)
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	defer sys.Close()
	f, err := fleet.New(sys.Backend, sys.Handler, fleet.Config{Probes: *nProbes, TasksPerProbe: *tasksPerProbe, Workers: *workers, Seed: *seed})
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	fsyncs := func() (n int64) {
		for _, c := range sys.Ctrls {
			n += c.DurabilityCounters()["journal_records_appended"]
		}
		return n
	}
	base := fsyncs()
	rep := f.Run(*duration)
	round := f.Obs.Hist("obs_client_seconds", "call", "probe_sync").Snapshot()
	rec := loadRecord{Probes: *nProbes, Shards: *shards, TasksPerProbe: *tasksPerProbe, Workers: *workers,
		Delivered: rep.Executed, Syncs: round.Count, Seconds: round2(rep.Elapsed.Seconds()),
		OpsPerSec: round2(float64(rep.Executed) / rep.Elapsed.Seconds()), Fsyncs: fsyncs() - base,
		RoundP50ms: round2(round.P50.Seconds() * 1e3), RoundP99ms: round2(round.P99.Seconds() * 1e3), Drained: rep.Drained}
	if rep.Executed > 0 {
		rec.FsyncsPerOp = round2(float64(rec.Fsyncs) / float64(rep.Executed))
	}
	emit("fleetsim", rec)
	if err := f.Audit(sys.Ctrls); err != nil {
		log.Fatalf("fleetsim: exactly-once audit failed: %v", err)
	}
	log.Printf("fleetsim: exactly-once audit passed")
}

// loadRecord is what one load run measured. A round's latency is the
// probes' own, obs_client_seconds{call="probe_sync"}.
type loadRecord struct {
	Probes        int     `json:"probes"`
	Shards        int     `json:"shards,omitempty"`
	TasksPerProbe int     `json:"tasks_per_probe"`
	Workers       int     `json:"workers"`
	Delivered     int64   `json:"delivered"`
	Syncs         uint64  `json:"syncs"`
	Seconds       float64 `json:"seconds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Fsyncs        int64   `json:"fsyncs"`
	FsyncsPerOp   float64 `json:"fsyncs_per_op"`
	RoundP50ms    float64 `json:"round_p50_ms"`
	RoundP99ms    float64 `json:"round_p99_ms"`
	Drained       bool    `json:"drained"`
}

// biasSeedReport is one seed's naive-vs-scheduled comparison.
type biasSeedReport struct {
	Seed        int64   `json:"seed"`
	NaiveSkew   float64 `json:"naive_skew"`
	BiasedSkew  float64 `json:"biased_skew"`
	ReductionPc float64 `json:"reduction_pct"`
}

// biasRecord is what -bias prints.
type biasRecord struct {
	Probes      int              `json:"probes"`
	SkewedShare float64          `json:"skewed_share"`
	Rounds      int              `json:"rounds"`
	Seeds       []biasSeedReport `json:"seeds"`
}

// The bias experiment's shape: a fleet with skewedShare of its probes in
// one country, and fresh task waves that outpace lease capacity.
const (
	biasProbes  = 240
	skewedShare = 0.55
	biasRounds  = 6
	perLease    = 4
	perWave     = 3 // tasks enqueued per probe per round
)

// runBias quantifies the scheduler's effect: a fleet with most probes
// in one country serves a lease-constrained workload; total-variation
// skew of the served mix vs uniform-country targets is scored for naive
// FIFO and for the bias-aware scheduler. Lower is better; the run fails
// unless the scheduler wins on every seed.
func runBias(seed int64) (biasRecord, error) {
	// Every fleet country deserves an equal share of served tasks.
	targets := core.CoverageTargets{Country: map[string]float64{}}
	for _, c := range fleet.Countries {
		targets.Country[c] = 1.0 / float64(len(fleet.Countries))
	}
	rec := biasRecord{Probes: biasProbes, SkewedShare: skewedShare, Rounds: biasRounds}
	for _, s := range []int64{seed, seed + 1, seed + 2} {
		naive := serveSkewedFleet(s, core.CoverageTargets{})
		biased := serveSkewedFleet(s, targets)
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

// serveSkewedFleet runs the lease-constrained workload on one in-memory
// controller and returns its coverage book. Every class always has
// queued work, so the served mix is the scheduler's choice, not the
// queue's.
func serveSkewedFleet(seed int64, targets core.CoverageTargets) core.CoverageReport {
	rng := rand.New(rand.NewSource(seed))
	ctrl := core.NewController("fleet")
	ctrl.ConfigureCoverage(targets)
	ids := make([]string, biasProbes)
	for i := range ids {
		country := fleet.Countries[0]
		if rng.Float64() >= skewedShare {
			country = fleet.Countries[1+rng.Intn(len(fleet.Countries)-1)]
		}
		ids[i] = fmt.Sprintf("b-%04d", i)
		if err := ctrl.RegisterProbe(core.ProbeInfo{
			ID: ids[i], Country: country,
			ASN: topology.ASN(36900 + rng.Intn(16)), Kind: "sim",
		}); err != nil {
			log.Fatalf("fleetsim: bias register: %v", err)
		}
	}
	for range biasRounds {
		as := make([]probes.Assignment, 0, biasProbes*perWave)
		for _, id := range ids {
			for range perWave {
				as = append(as, probes.Assignment{ProbeID: id, Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"}})
			}
		}
		if _, err := ctrl.SubmitExperiment("fleet", "bias wave", as); err != nil {
			log.Fatalf("fleetsim: bias wave: %v", err)
		}
		// Seeded visiting order: probe arrival order must not encode the
		// country mix.
		for _, i := range rng.Perm(biasProbes) {
			ctrl.SyncProbe(ids[i], nil, perLease)
		}
	}
	return ctrl.Coverage()
}

// emit writes one record to stdout as indented JSON under its key.
func emit(key string, v any) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	fmt.Printf("%s: %s\n", key, raw)
}

func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }
func round4(f float64) float64 { return float64(int(f*10000+0.5)) / 10000 }
