// Command obsd runs the observatory controller: the HTTP control plane
// probes register with, experimenters submit vetted experiments to, and
// analysts pull results from.
//
// Usage:
//
//	obsd [-listen 127.0.0.1:8600] [-trusted owner1,owner2]
//	     [-tick 5s] [-lease-ttl 3] [-suspect-after 2] [-dead-after 5]
//	     [-data-dir /var/lib/obsd] [-snapshot-every 1024]
//	     [-store-dir DIR] [-retention N] [-compact-every N]
//	     [-debug-addr 127.0.0.1:8601]
//	     [-max-inflight N] [-route-rates query=2:8,...] [-retry-after 1]
//
// The controller's at-least-once task pipeline runs on a logical tick
// clock: every -tick interval obsd advances it once, which expires
// stale leases (requeueing their tasks), downgrades silent probes to
// suspect/dead, and reassigns dead probes' queues to live peers. Fleet
// health is logged whenever it changes and is always available at
// GET /api/v1/health and /api/v1/stats.
//
// With -debug-addr obsd opens a second, operator-only listener serving
// net/http/pprof under /debug/pprof/ and the same Prometheus exposition
// the API serves at /metrics. Keep it bound to loopback or a management
// network: unlike the API listener it exposes profiling data.
//
// With -data-dir the controller is crash-safe: every mutation is
// appended to a checksummed write-ahead journal before it is
// acknowledged, a compacted snapshot is taken every -snapshot-every
// records, and a restarted obsd resumes exactly where it left off.
// While recovery replays, the API answers 503 with Retry-After so
// probes retry through the outage. SIGINT/SIGTERM trigger a graceful
// shutdown: in-flight HTTP requests drain, a final snapshot is taken,
// and the journal is closed cleanly.
//
// Result payloads live in a log-structured results store beside the
// journal (-store-dir, default <data-dir>/store): the WAL carries only
// dedup bookkeeping, so snapshots and replay stay small no matter how
// many results accumulate. Every -compact-every ticks obsd runs a store
// maintenance sweep that merges small segments and, with -retention N,
// drops results older than N ticks. Analysts query the store through
// GET /api/v1/query (aggregations and filtered scans) and the paginated
// /api/v1/experiments/{id}/results endpoint.
//
// With -shards N obsd runs a federated tier instead of a single
// controller: N shard controllers behind a coordinator that routes probes
// by consistent hashing, fans queries out with per-shard deadlines and
// hedged retries, and — with -shard-failover (default on) — fails a
// dead shard over onto a replacement recovered from a shipped copy of
// its journal. With -data-dir the coordinator journals its shard map
// under <data-dir>/coordinator, and shard-i keeps its journal and store
// under <data-dir>/shard-i until its first failover and under
// <data-dir>/shard-i-epochN after the Nth: a restart recovers each shard
// at the epoch the coordinator's journal holds (federation.BootLocal).
// With -coordinator url1,url2 the shards are remote obsd processes
// instead. The API surface is identical either way; analysts
// see `degraded: true` and `shards_missing` on partial query results
// while a shard is down.
//
// Probes (cmd/obsprobe) sharing the controller's world seed connect to
// the same simulated Internet, so a controller plus a fleet of probe
// processes forms a working distributed deployment on one machine.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/obs"
)

// parseRouteRates parses "route=perTick:burst[,...]" into rate limits,
// each on one of the tier's routes.
func parseRouteRates(spec string, routes []core.RouteInfo) (map[string]core.RateLimit, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]core.RateLimit)
	var names []string
	for _, r := range routes {
		names = append(names, r.Name)
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if name = strings.TrimSpace(name); !ok {
			return nil, fmt.Errorf("%q is not route=perTick:burst", part)
		} else if !slices.Contains(names, name) {
			return nil, fmt.Errorf("%q in %q is not a route this tier serves: %s", name, part, strings.Join(names, ", "))
		}
		per, burst, ok := strings.Cut(val, ":")
		if !ok {
			return nil, fmt.Errorf("%q is not route=perTick:burst", part)
		}
		p, err := strconv.ParseFloat(per, 64)
		if err != nil || p < 0 {
			return nil, fmt.Errorf("bad perTick in %q", part)
		}
		b, err := strconv.ParseFloat(burst, 64)
		if err != nil || b <= 0 {
			return nil, fmt.Errorf("bad burst in %q", part)
		}
		out[name] = core.RateLimit{PerTick: p, Burst: b}
	}
	return out, nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:8600", "address to serve the control-plane API on")
	trusted := flag.String("trusted", "upanzi,research-team", "comma-separated trusted experiment owners")
	tick := flag.Duration("tick", 5*time.Second, "wall-clock interval per controller tick (lease/liveness sweep)")
	leaseTTL := flag.Int64("lease-ttl", 3, "ticks a probe may hold a leased task before it is requeued")
	suspectAfter := flag.Int64("suspect-after", 2, "silent ticks before a probe is suspect")
	deadAfter := flag.Int64("dead-after", 5, "silent ticks before a probe is dead and its queue reassigned")
	dataDir := flag.String("data-dir", "", "journal+snapshot directory for crash-safe state (empty = in-memory only)")
	snapEvery := flag.Int("snapshot-every", 1024, "journal records between automatic compacted snapshots (with -data-dir)")
	storeDir := flag.String("store-dir", "", "results-store segment directory (default <data-dir>/store; with -data-dir)")
	retention := flag.Int64("retention", 0, "drop stored results older than this many ticks at compaction (0 = keep forever)")
	compactEvery := flag.Int64("compact-every", 256, "ticks between results-store compaction sweeps (0 = never)")
	debugAddr := flag.String("debug-addr", "", "optional operator listener serving /debug/pprof/ and /metrics (empty = off)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently-executing requests; low-priority routes shed at half this bound (0 = unbounded)")
	routeRates := flag.String("route-rates", "", "admission control: per-route token buckets as route=perTick:burst[,route=perTick:burst...], e.g. query=2:8 (empty = no rate limits)")
	retryAfter := flag.Int("retry-after", 1, "Retry-After seconds suggested on shed (429) responses")
	shards := flag.Int("shards", 0, "run a federated tier of N local shard controllers behind a coordinator (0 = single controller)")
	coordinator := flag.String("coordinator", "", "run a coordinator over remote shards at these comma-separated base URLs (mutually exclusive with -shards)")
	shardSuspect := flag.Int64("shard-suspect-after", 3, "silent ticks before a shard is suspect (federated modes)")
	shardDead := flag.Int64("shard-dead-after", 6, "silent ticks before a shard is dead and eligible for failover (federated modes)")
	queryDeadline := flag.Duration("query-deadline", 2*time.Second, "per-shard deadline on federated scatter-gather calls")
	hedgeAfter := flag.Duration("hedge-after", 250*time.Millisecond, "delay before a federated call hedges a second attempt (0 = no hedging)")
	shardFailover := flag.Bool("shard-failover", true, "fail dead local shards over by shipping journal+store to a replacement (with -shards and -data-dir)")
	flag.Parse()

	if *shards > 0 && *coordinator != "" {
		log.Fatalf("obsd: -shards and -coordinator are mutually exclusive")
	}

	var cohort []string
	for _, t := range strings.Split(*trusted, ",") {
		if t = strings.TrimSpace(t); t != "" {
			cohort = append(cohort, t)
		}
	}

	// Bind the listener before recovery so probes reconnecting after a
	// restart get 503 (retried by their client) instead of connection
	// refused.
	gate := core.NewRecoveryGate()
	srv := &http.Server{Handler: gate}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("obsd: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var admission core.AdmissionConfig
	if *maxInflight > 0 || *routeRates != "" {
		routes := core.APIRoutes()
		if *shards > 0 || *coordinator != "" {
			routes = federation.APIRoutes()
		}
		rates, err := parseRouteRates(*routeRates, routes)
		if err != nil {
			log.Fatalf("obsd: -route-rates: %v", err)
		}
		admission = core.AdmissionConfig{
			MaxInFlight:       *maxInflight,
			RouteRates:        rates,
			RetryAfterSeconds: *retryAfter,
		}
		log.Printf("obsd: admission control on (max-inflight=%d route-rates=%q)", *maxInflight, *routeRates)
	}
	shardDurability := core.DurabilityConfig{
		Trusted:       cohort,
		LeaseTTL:      *leaseTTL,
		SuspectAfter:  *suspectAfter,
		DeadAfter:     *deadAfter,
		SnapshotEvery: *snapEvery,
		Retention:     *retention,
	}
	fedCfg := federation.Config{
		SuspectAfter:  *shardSuspect,
		DeadAfter:     *shardDead,
		QueryDeadline: *queryDeadline,
		HedgeAfter:    *hedgeAfter,
		AutoFailover:  *shardFailover,
		Admission:     admission,
	}

	var svc service
	switch {
	case *shards > 0:
		svc = buildLocalFederation(*shards, *dataDir, shardDurability, fedCfg)
	case *coordinator != "":
		svc = buildRemoteFederation(*coordinator, *dataDir, fedCfg)
	default:
		cfg := shardDurability
		cfg.StoreDir = *storeDir
		if *dataDir != "" {
			log.Printf("obsd: recovering state from %s ...", *dataDir)
		} else if *storeDir != "" {
			log.Printf("obsd: warning: -store-dir ignored without -data-dir (results stay in memory)")
		}
		ctrl, err := core.Recover(*dataDir, cfg)
		if err != nil {
			log.Fatalf("obsd: recover: %v", err)
		}
		if *dataDir != "" {
			logRecovered("", ctrl)
		}
		ctrl.ConfigureAdmission(admission)
		svc = singleService{ctrl.Backend(), ctrl}
	}
	gate.Ready(svc.Handler())

	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = svc.Observability().WritePrometheus(w)
		})
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("obsd: debug listener: %v", err)
		}
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				log.Printf("obsd: debug listener: %v", err)
			}
		}()
		log.Printf("obsd: debug listener (pprof + metrics) on http://%s", dln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	go func() {
		// Neither tier's own Health can fail: each answers for itself, and a
		// coordinator reports unreachable shards as a degraded status.
		last, _ := svc.Health()
		t := time.NewTicker(*tick)
		defer t.Stop()
		var ticks int64
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			svc.Tick(1)
			if ticks++; *compactEvery > 0 && ticks%*compactEvery == 0 {
				svc.Maintain()
			}
			h, _ := svc.Health()
			if h.Status != last.Status || h.ProbesDead != last.ProbesDead || h.ProbesSuspect != last.ProbesSuspect {
				log.Printf("obsd: fleet %s — alive=%d suspect=%d dead=%d queued=%d leased=%d",
					h.Status, h.ProbesAlive, h.ProbesSuspect, h.ProbesDead, h.QueuedTasks, h.OutstandingLeases)
			}
			last = h
		}
	}()

	mode := "single controller"
	if *shards > 0 {
		mode = fmt.Sprintf("%d local shards + coordinator", *shards)
	} else if *coordinator != "" {
		mode = fmt.Sprintf("coordinator over %s", *coordinator)
	}
	log.Printf("obsd: serving control plane on http://%s (%s, trusted cohort: %v, tick=%s lease-ttl=%d data-dir=%q)",
		ln.Addr(), mode, cohort, *tick, *leaseTTL, *dataDir)

	select {
	case err := <-serveErr:
		log.Fatalf("obsd: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting work, drain in-flight requests,
	// then snapshot and close the journal so the next start replays
	// nothing.
	log.Printf("obsd: shutting down (draining in-flight requests)...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("obsd: http shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Printf("obsd: closing journal: %v", err)
	} else if *dataDir != "" {
		log.Printf("obsd: final snapshot written to %s", *dataDir)
	}
	log.Printf("obsd: bye")
}

// service is what the serving loop needs from either topology — a single
// controller or a federated coordinator: its core.Backend (the loop's Tick
// and Health) and the process around it.
type service interface {
	core.Backend
	Handler() http.Handler
	Observability() *obs.Registry
	Maintain() // periodic store maintenance sweep
	Close() error
}

type singleService struct {
	core.Backend
	ctrl *core.Controller
}

func (s singleService) Handler() http.Handler        { return s.ctrl.Handler() }
func (s singleService) Observability() *obs.Registry { return s.ctrl.Observability() }
func (s singleService) Close() error                 { return s.ctrl.Close() }

func (s singleService) Maintain() {
	if err := s.ctrl.CompactStore(); err != nil {
		log.Printf("obsd: store compaction: %v", err)
	}
}

type fedService struct{ *federation.Local }

func (s fedService) Maintain() {
	for id, ls := range s.Shards {
		if ctrl := ls.Controller(); ctrl != nil {
			if err := ctrl.CompactStore(); err != nil {
				log.Printf("obsd: %s store compaction: %v", id, err)
			}
		}
	}
}

// logRecovered says what a recovery did and where its time went: the
// phases are the obs_recover_seconds series /metrics serves from then on,
// and the time is theirs together; snapshot_bytes and snapshot_frames size
// the snapshot it started from.
func logRecovered(who string, ctrl *core.Controller) {
	d := ctrl.DurabilityCounters()
	series := ctrl.Observability().Snapshots()
	var took time.Duration
	for name, s := range series {
		if strings.HasPrefix(name, core.MetricRecover+"{") {
			took += s.Sum
		}
	}
	phase := func(p string) time.Duration {
		return series[fmt.Sprintf("%s{phase=%q}", core.MetricRecover, p)].Sum.Round(10 * time.Microsecond)
	}
	log.Printf("obsd: %srecovered in %s (journal_open=%s store_open=%s snapshot=%s snapshot_bytes=%d snapshot_frames=%d decode=%s replay=%s reconcile=%s replayed=%d requeued=%d truncated_tail=%d tick=%d)",
		who, took.Round(time.Millisecond),
		phase("journal_open"), phase("store_open"), phase("snapshot"), d["snapshot_bytes"], d["snapshot_frames"],
		phase("decode"), phase("replay"), phase("reconcile"),
		d["recovery_replayed"], d["recovery_results_requeued"],
		d["recovery_truncated_tail"], ctrl.Now())
}

// buildLocalFederation boots N shard controllers behind a coordinator
// through federation.BootLocal, under dataDir when it is set, and logs each
// shard's recovery, at boot and at each failover.
func buildLocalFederation(n int, dataDir string, shardCfg core.DurabilityConfig, fedCfg federation.Config) fedService {
	l, err := federation.BootLocal(dataDir, n, shardCfg, fedCfg)
	if err != nil {
		log.Fatalf("obsd: %v", err)
	}
	if dataDir == "" {
		if fedCfg.AutoFailover {
			log.Printf("obsd: warning: -shard-failover needs -data-dir to ship state; dead shards will 503 until restart")
		}
		return fedService{l}
	}
	for _, id := range slices.Sorted(maps.Keys(l.Shards)) {
		logRecovered(id+" ", l.Shards[id].Controller())
	}
	boot := l.Failover
	l.Failover = func(id string, epoch int, commit func() error) error {
		err := boot(id, epoch, commit)
		if err == nil {
			logRecovered(fmt.Sprintf("%s at epoch %d ", id, epoch), l.Shards[id].Controller())
		}
		return err
	}
	return fedService{l}
}

// buildRemoteFederation runs a coordinator over remote obsd shard
// processes; each base URL is the shard's id, so the shard map is
// stable across coordinator restarts as long as the fleet's addresses
// are.
func buildRemoteFederation(urls, dataDir string, fedCfg federation.Config) service {
	coordDir := ""
	if dataDir != "" {
		coordDir = filepath.Join(dataDir, "coordinator")
	}
	coord, err := federation.New(coordDir, fedCfg)
	if err != nil {
		log.Fatalf("obsd: coordinator: %v", err)
	}
	added := 0
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		if err := coord.AddShard(u, federation.NewHTTPShard(core.NewClient(u))); err != nil {
			log.Fatalf("obsd: add shard %s: %v", u, err)
		}
		added++
	}
	if added == 0 {
		log.Fatalf("obsd: -coordinator needs at least one shard URL")
	}
	return fedService{&federation.Local{Coordinator: coord}}
}
