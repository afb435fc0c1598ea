// Command obsprobe runs one observatory probe agent: it registers with a
// controller, then loops over POST /probes/sync rounds — each carries
// the heartbeat, the next frame of undelivered results and the ask for
// the next task lease — executing what it leases against the simulated
// Internet (selected by -seed, which must match the fleet's). Idle
// rounds long-poll server-side for up to -wait, so fresh work is
// delivered the moment it is enqueued instead of on the next -poll.
//
// Usage:
//
//	obsprobe -controller http://127.0.0.1:8600 -id kgl-01 -asn 36924 \
//	         [-seed 42] [-wired] [-budget 5.0] [-bundle-mb 20] [-poll 1]
//	         [-spool-dir /var/lib/obsprobe] [-spool-max 4096]
//	         [-breaker-threshold 0] [-wait 5s] [-websteps]
//
// Without -wired the probe is cellular-only and meters every task
// against a prepaid bundle budget, failing tasks once the budget is
// exhausted — the Section 7.1 cost-consciousness in practice.
//
// With -spool-dir every completed result is fsynced to a disk outbox
// (internal/spool) before upload is attempted, so a probe killed by a
// power cut restarts and delivers its backlog instead of re-running
// the measurements; -spool-max bounds the backlog, evicting oldest
// first. Without it the outbox is in memory: results survive a failed
// round, not a restart. -breaker-threshold N trips a circuit breaker
// after N consecutive transport failures so a dead uplink fails fast
// instead of burning the retry budget (0 disables).
//
// With -websteps the agent is armed with the step-following web
// measurement engine (internal/websim) under the seed's default
// interference policy, so it can execute "websteps" tasks; without the
// flag those tasks fail with "agent has no websteps engine".
//
// On SIGINT/SIGTERM the probe shuts down gracefully: it finishes the
// task batch it is executing, attempts one final upload of any results
// that previous rounds failed to deliver, and exits. Anything still
// undelivered waits in the spool for the next start (or, without
// -spool-dir, is recovered by the controller's lease expiry) — a killed
// probe never strands work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/spool"
	"github.com/afrinet/observatory/internal/topology"

	observatory "github.com/afrinet/observatory"
)

func main() {
	controller := flag.String("controller", "http://127.0.0.1:8600", "controller base URL")
	id := flag.String("id", "", "probe id (required)")
	asn := flag.Uint("asn", 0, "hosting network ASN (required)")
	seed := flag.Int64("seed", 42, "world seed (must match the fleet)")
	year := flag.Int("year", 2025, "world snapshot year")
	wired := flag.Bool("wired", false, "probe site has fixed broadband (unmetered)")
	budget := flag.Float64("budget", 5.0, "cellular money budget")
	bundleMB := flag.Int64("bundle-mb", 20, "prepaid bundle size (MB)")
	bundlePrice := flag.Float64("bundle-price", 1.0, "prepaid bundle price")
	outageProb := flag.Float64("outage-prob", 0.0, "hourly grid-power outage probability")
	poll := flag.Duration("poll", time.Second, "task poll interval")
	once := flag.Bool("once", false, "drain the queue once and exit")
	spoolDir := flag.String("spool-dir", "", "durable result outbox directory (empty = hold undelivered results in memory only)")
	spoolMax := flag.Int("spool-max", 0, "max undelivered results spooled before oldest are evicted (0 = default 4096, negative = unbounded)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive transport failures before the uplink circuit breaker trips (0 = disabled)")
	wait := flag.Duration("wait", 0, "long-poll duration for idle sync rounds (0 = return immediately)")
	websteps := flag.Bool("websteps", false, "arm the websteps engine (seed's default interference policy) so \"websteps\" tasks execute")
	flag.Parse()

	if *id == "" || *asn == 0 {
		log.Fatal("obsprobe: -id and -asn are required")
	}

	log.Printf("obsprobe %s: generating world (seed=%d year=%d)...", *id, *seed, *year)
	stack := observatory.NewStack(observatory.Config{Seed: *seed, Year: *year})
	if stack.Topology.ASes[topology.ASN(*asn)] == nil {
		log.Fatalf("obsprobe: AS%d does not exist in this world", *asn)
	}

	cfg := probes.Config{
		ID:       *id,
		ASN:      topology.ASN(*asn),
		HasWired: *wired,
	}
	if !*wired {
		cfg.CellBudget = probes.NewBudget(
			probes.PrepaidBundle{BundleMB: *bundleMB, BundlePrice: *bundlePrice}, *budget)
	}
	if *outageProb > 0 {
		cfg.Power = probes.NewPowerModel(*seed, *outageProb)
	}
	agent := stack.NewAgent(cfg)
	if *websteps {
		agent.EnableWebsteps(stack.NewWebsteps(*seed))
	}

	cl := core.NewClient(*controller)
	reg := obs.NewRegistry()
	cl.Obs = reg
	cl.BreakerThreshold = *breakerThreshold

	// outbox holds executed-but-undelivered results: the disk spool with
	// -spool-dir (sp), the in-memory one without.
	var outbox core.ResultSpool = &core.MemSpool{}
	var sp *spool.Spool
	if *spoolDir != "" {
		var err error
		// The spool counts into the client's registry: one family covers the
		// probe's whole resilience story, spool evictions beside breaker
		// trips and Retry-After honors, with the spool depth as a gauge.
		sp, err = spool.Open(*spoolDir, spool.Options{MaxPending: *spoolMax, Obs: reg})
		if err != nil {
			log.Fatalf("obsprobe: %v", err)
		}
		defer sp.Close()
		if n := sp.Len(); n > 0 {
			log.Printf("obsprobe %s: spool holds %d undelivered results from a previous run", *id, n)
		}
		outbox = sp
	}
	if err := cl.Register(core.ProbeInfo{
		ID: *id, ASN: topology.ASN(*asn),
		Country:  stack.Topology.ASes[topology.ASN(*asn)].Country,
		HasWired: *wired, Kind: "hardware",
	}); err != nil {
		log.Fatalf("obsprobe: register: %v", err)
	}
	log.Printf("obsprobe %s: registered at %s (AS%d, wired=%v)", *id, *controller, *asn, *wired)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// flush delivers results whose upload failed even after retries, on
	// later rounds and in one final attempt at shutdown. Late delivery is
	// safe: the controller dedups by (experiment, task). Every delivered
	// batch doubles as liveness contact.
	flush := func() {
		if n, err := core.FlushSpool(cl, *id, outbox); err != nil {
			log.Printf("obsprobe %s: flushing outbox (%d still pending): %v", *id, outbox.Len(), err)
		} else if n > 0 {
			log.Printf("obsprobe %s: delivered %d held results", *id, n)
		}
	}

	for {
		// A signal mid-batch lets the batch finish: the drain executes
		// and uploads synchronously, and we only check ctx between
		// rounds.
		n, err := core.DrainWithSync(cl, agent, outbox, *wait)
		if errors.Is(err, framelog.ErrStopped) {
			// The spool can keep nothing more until it is reopened: another
			// round would lease and execute tasks, spending the data
			// budget on results that cannot be sunk. A supervisor restart
			// reopens the spool, which re-reads what survived.
			log.Fatalf("obsprobe %s: exiting, spool stopped after a disk fault: %v", *id, err)
		}
		if err != nil {
			// Transient faults are retried inside the client; anything
			// surfacing here abandons the round. The controller requeues
			// whatever we leased once the lease expires — except results
			// we already executed, which are held in the outbox.
			log.Printf("obsprobe %s: %v", *id, err)
		}
		if n > 0 {
			log.Printf("obsprobe %s: completed %d tasks", *id, n)
		}
		flush()
		if err != nil {
			// Every sync doubles as liveness contact; a round that
			// failed outright recorded none, so send an empty one lest
			// the controller declare us dead and reassign our queue.
			if _, herr := cl.Sync(core.SyncRequest{ProbeID: *id, Max: -1}, 0); herr != nil {
				log.Printf("obsprobe %s: heartbeat: %v", *id, herr)
			}
		}
		if *once {
			break
		}
		agent.Hour++ // advance simulated time-of-day each poll round
		select {
		case <-ctx.Done():
			log.Printf("obsprobe %s: signal received, shutting down", *id)
			flush() // one final delivery attempt for held results
			if sp != nil && sp.Len() > 0 {
				log.Printf("obsprobe %s: exiting with %d spooled results (delivered on next start)",
					*id, sp.Len())
			} else if outbox.Len() > 0 {
				log.Printf("obsprobe %s: exiting with %d undelivered results (lease expiry will requeue them)",
					*id, outbox.Len())
			}
			logResilience(*id, reg)
			logLatencies(*id, reg)
			log.Printf("obsprobe %s: bye", *id)
			return
		case <-time.After(*poll):
		}
	}
	flush()
	logResilience(*id, reg)
	logLatencies(*id, reg)
}

// logResilience prints the probe's non-zero resilience counters and
// gauge at shutdown: spool depth and evictions, breaker trips,
// Retry-After honors — the field-conditions ledger for this run.
func logResilience(id string, reg *obs.Registry) {
	vals := obs.Union(reg.Counters("obs_probe_resilience_total"), reg.Gauges("obs_probe_gauge"))
	names := make([]string, 0, len(vals))
	for name, v := range vals {
		if v != 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, vals[name])
	}
	log.Printf("obsprobe %s: resilience %s", id, strings.Join(parts, " "))
}

// logLatencies prints the probe's own view of controller latency at
// shutdown: one line per API call (lease polls, result submits, ...)
// with count, mean, p50/p99, and max. The same numbers the controller
// aggregates server-side, but measured from the probe's end of the
// flaky link — the side the paper argues is underobserved.
func logLatencies(id string, reg *obs.Registry) {
	snaps := reg.Snapshots()
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := snaps[name]
		if s.Count == 0 {
			continue
		}
		log.Printf("obsprobe %s: latency %s count=%d mean=%s p50=%s p99=%s max=%s",
			id, name, s.Count,
			s.Mean.Round(time.Microsecond), s.P50, s.P99, s.Max.Round(time.Microsecond))
	}
}
