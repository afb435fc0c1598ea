package dnsload

import (
	"math"
	"reflect"
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/topology"
)

var (
	testTopo = topology.Generate(topology.DefaultParams())
	testNet  = netsim.New(testTopo, bgp.New(testTopo), 42)
	testDNS  = dnssim.New(testNet, 42)
)

func loadConfig(seed uint64, queries int) Config {
	var clients []topology.ASN
	var targets []Target
	for _, c := range []string{"NG", "KE", "ZA", "EG", "GH", "SN"} {
		clients = append(clients, testDNS.ClientNetworks(c)...)
		for i := 0; i < 4; i++ {
			targets = append(targets, Target{Domain: domainName(c, i), OriginCountry: c})
		}
	}
	return Config{Seed: seed, Queries: queries, Clients: clients, Targets: targets, CompareECS: true}
}

func domainName(cc string, i int) string {
	return "site" + string(rune('0'+i)) + "." + cc
}

func TestBucketPacing(t *testing.T) {
	b := Bucket{QPS: 1000, Burst: 8}
	for i := 0; i < 8; i++ {
		if got := b.SendAtMs(i); got != 0 {
			t.Fatalf("query %d inside the burst should depart at 0, got %v", i, got)
		}
	}
	if got := b.SendAtMs(8); got != 1 {
		t.Fatalf("first post-burst query at %v ms, want 1", got)
	}
	// 10k queries at 1k QPS take ~10s of logical time.
	if got := b.SendAtMs(10007); math.Abs(got-10000) > 1 {
		t.Fatalf("SendAtMs(10007) = %v, want ~10000", got)
	}
}

func TestRunAggregates(t *testing.T) {
	rep := Run(testDNS, loadConfig(1, 20000))
	if rep.Queries != 20000 {
		t.Fatalf("Queries = %d", rep.Queries)
	}
	if rep.OK+rep.Failed+rep.TimedOut != rep.Queries {
		t.Fatalf("outcome counts don't partition: ok=%d failed=%d timedout=%d of %d",
			rep.OK, rep.Failed, rep.TimedOut, rep.Queries)
	}
	if rep.OK == 0 {
		t.Fatal("healthy plane should resolve most queries")
	}
	if rep.Attempts < rep.Queries {
		t.Fatalf("attempts %d < queries %d", rep.Attempts, rep.Queries)
	}
	if rep.AchievedQPS <= 0 || rep.MakespanMs <= 0 {
		t.Fatalf("pacing stats missing: qps=%v makespan=%v", rep.AchievedQPS, rep.MakespanMs)
	}
	// Offered load is the cap on logical throughput (timeouts can push
	// the makespan past the send schedule, never below it).
	if rep.AchievedQPS > rep.OfferedQPS*1.01 {
		t.Fatalf("achieved %v QPS exceeds offered %v", rep.AchievedQPS, rep.OfferedQPS)
	}
	if rep.MeanMs <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("histogram stats malformed: mean=%v p50=%v p99=%v", rep.MeanMs, rep.P50Ms, rep.P99Ms)
	}
	if len(rep.ByChain) == 0 || len(rep.ByCountry) == 0 {
		t.Fatal("chain/country breakdowns empty")
	}
	var sum int
	for _, c := range rep.ByCountry {
		sum += c.Queries
	}
	if sum != rep.Queries {
		t.Fatalf("country breakdown sums to %d of %d", sum, rep.Queries)
	}
	if rep.CloudAuth == 0 {
		t.Fatal("expected some cloud-hosted authorities in the mix")
	}
	if rep.Localized > rep.CloudAuth {
		t.Fatalf("localized %d > cloud-auth %d", rep.Localized, rep.CloudAuth)
	}
}

// TestRunDeterministicAcrossWorkers pins the driver's core contract:
// the report is a pure function of (substrate, Config) regardless of
// worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := loadConfig(seed, 8000)
		cfg.Workers = 1
		serial := Run(testDNS, cfg)
		cfg.Workers = 8
		parallel := Run(testDNS, cfg)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("seed %d: serial and 8-worker reports differ:\n serial   %+v\n parallel %+v", seed, serial, parallel)
		}
	}
}

func TestECSImprovesOrMatchesLocalization(t *testing.T) {
	cfg := loadConfig(3, 12000)
	cfg.CompareECS = false
	noECS := Run(testDNS, cfg)
	cfg.ECS = true
	withECS := Run(testDNS, cfg)
	// Localization accuracy is Localized/CloudAuth; the first check compares
	// the two shares cross-multiplied.
	if withECS.Localized*noECS.CloudAuth < noECS.Localized*withECS.CloudAuth {
		t.Fatalf("ECS should never hurt localization: with=%d/%d without=%d/%d",
			withECS.Localized, withECS.CloudAuth, noECS.Localized, noECS.CloudAuth)
	}
	if withECS.CloudAuth == 0 || withECS.Localized != withECS.CloudAuth {
		t.Fatalf("ECS answers are steered by the client subnet, all should be localized, got %d/%d",
			withECS.Localized, withECS.CloudAuth)
	}
}

func TestRetryScheduleBounded(t *testing.T) {
	cfg := loadConfig(5, 4000)
	// A 1ms timeout forces every reachable query through the full retry
	// schedule and into TimedOut.
	cfg.TimeoutMs = 0.0001
	cfg.Retries = 2
	rep := Run(testDNS, cfg)
	if rep.OK != 0 {
		t.Fatalf("nothing should beat a ~0 timeout, ok=%d", rep.OK)
	}
	if rep.TimedOut == 0 {
		t.Fatal("expected timeouts")
	}
	if rep.Attempts != rep.Queries*3 {
		t.Fatalf("attempts = %d, want exactly 3 per query (%d)", rep.Attempts, rep.Queries*3)
	}
	if rep.Retried != rep.TimedOut {
		t.Fatalf("every timed-out query retried: retried=%d timedout=%d", rep.Retried, rep.TimedOut)
	}
}

func TestRunFailsClosedUnderIsolation(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	n := netsim.New(topo, bgp.New(topo), 42)
	s := dnssim.New(n, 42)
	defer func() { n.SetCablesCut(n.CutCables(), false) }()
	n.SetCablesCut(topo.CableIDs(), true)
	var clients []topology.ASN
	for _, c := range []string{"NG", "GH", "CI"} {
		clients = append(clients, s.ClientNetworks(c)...)
	}
	rep := Run(s, Config{Seed: 9, Queries: 2000, Clients: clients,
		Targets: []Target{{Domain: "site0.NG", OriginCountry: "NG"}}})
	if rep.Failed == 0 {
		t.Fatal("total cable isolation should produce unreachable failures")
	}
}

func TestTaskRun(t *testing.T) {
	var client topology.ASN
	for _, c := range geo.AfricanCountries() {
		if nets := testDNS.ClientNetworks(c.ISO2); len(nets) > 0 {
			client = nets[0]
			break
		}
	}
	sum := TaskRun(testDNS, client, "site0.KE", "KE", 256, false, 99)
	if !sum.OK || sum.Succeeded == 0 || sum.Queries != 256 {
		t.Fatalf("task summary %+v", sum)
	}
	if sum.Chain == "" || sum.Kind == "" {
		t.Fatalf("missing chain/kind: %+v", sum)
	}
	again := TaskRun(testDNS, client, "site0.KE", "KE", 256, false, 99)
	if sum != again {
		t.Fatalf("TaskRun not deterministic:\n first  %+v\n second %+v", sum, again)
	}
}
