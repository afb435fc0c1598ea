package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/faultinject"
	"github.com/afrinet/observatory/internal/outage"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/spool"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/websim"
)

// TestChaosScheduleEndToEnd drives the whole resilience stack through a
// seeded chaos schedule: link flaps and partitions on the probes'
// transports, probe power cycles (spool closed, process state thrown
// away, spool reopened), at least one controller hard-crash/recover,
// and a rate-limited analyst hammering the query route throughout. The
// run must converge to exactly-once completion with zero lost results,
// every spool drained empty, load shedding observable in /metrics, and
// trace-ring/memtable memory bounded.
//
// The schedule is deterministic: OBS_CHAOS_SEED and OBS_CHAOS_ROUNDS
// select it (defaults 42/36; `make chaos` runs a longer timeline).
func TestChaosScheduleEndToEnd(t *testing.T) {
	seed := int64(42)
	if v := os.Getenv("OBS_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("OBS_CHAOS_SEED: %v", err)
		}
		seed = n
	}
	rounds := 36
	if v := os.Getenv("OBS_CHAOS_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 10 {
			t.Fatalf("OBS_CHAOS_ROUNDS: want an int >= 10, got %q", v)
		}
		rounds = n
	}
	crashes := 1
	if rounds >= 80 {
		crashes = 2
	}

	probeIDs := []string{"live-00", "live-01", "live-02"}
	sched := faultinject.GenerateSchedule(seed, faultinject.ScheduleConfig{
		Rounds:                rounds,
		Probes:                probeIDs,
		FlapProb:              0.10,
		PartitionProb:         0.08,
		CycleProb:             0.08,
		MaxWindow:             3,
		ControllerCrashes:     crashes,
		InterferenceCountries: []string{"RW"},
		InterferenceWindows:   2,
	})
	t.Logf("%s", sched)

	// Censorship weather rides the same timeline: Rwanda gets a
	// full-mechanism policy that applies only while the schedule's
	// interference windows are open. Exactly-once must hold with DNS
	// poisoning, SNI resets, blockpages, and throttling active.
	pol := outage.NewInterference(seed)
	pol.SetRule(outage.InterferenceRule{
		Country: "RW", DNSPoison: true, PoisonBogon: true,
		SNIReset: true, Blockpage: true,
		ThrottleBytesPerMs: 10, DomainFraction: 1.0,
		ResolverClasses: []string{"same-country", "other-country", "cloud"},
	})
	pol.SetWindowed(true)
	websteps := websim.New(testNet, testDNS, testWeb, pol, seed)

	const flushEvery = 16
	dataDir := t.TempDir()
	cfg := DurabilityConfig{
		Trusted:         []string{"obs"},
		LeaseTTL:        3,
		SuspectAfter:    4,
		DeadAfter:       8,
		SnapshotEvery:   64,
		StoreFlushEvery: flushEvery,
	}
	admission := AdmissionConfig{
		RouteRates:        map[string]RateLimit{"query": {PerTick: 1, Burst: 2}},
		RetryAfterSeconds: 1,
	}
	ctrl, err := Recover(dataDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.ConfigureAdmission(admission)
	gate := NewRecoveryGate()
	gate.Ready(ctrl.Handler())
	srv := httptest.NewServer(gate)
	defer srv.Close()

	admin := NewClientSeeded(srv.URL, 99)
	admin.MaxAttempts = 8
	admin.Sleep = func(time.Duration) {}
	// The analyst deliberately outruns the query route's token bucket;
	// no retries, so every shed is a clean 429 observation.
	analyst := NewClientSeeded(srv.URL, 98)
	analyst.MaxAttempts = 1
	analyst.Sleep = func(time.Duration) {}

	// rig is one probe "process": the transport and spool survive power
	// cycles (they are the network and the disk); client and agent are
	// process state and are rebuilt on every cycle.
	type rig struct {
		id       string
		ft       *faultinject.Transport
		spoolDir string
		sp       *spool.Spool
		cl       *Client
		agent    *probes.Agent
		cycles   int
	}
	boot := func(r *rig) {
		cl := NewClientSeeded(srv.URL, int64(len(r.id))+int64(r.cycles))
		cl.HTTP = &http.Client{Timeout: 5 * time.Second, Transport: r.ft}
		cl.MaxAttempts = 4
		cl.Sleep = func(time.Duration) {}
		cl.BreakerThreshold = 5
		r.cl = cl
		r.agent = probes.NewAgent(probes.Config{ID: r.id, ASN: 36924, HasWired: true}, testNet, testDNS, testWeb)
		r.agent.EnableWebsteps(websteps)
	}
	var rigs []*rig
	for i, id := range probeIDs {
		r := &rig{id: id, ft: faultinject.New(seed + int64(300+i)), spoolDir: t.TempDir()}
		r.ft.DupProb = 0.10
		sp, err := spool.Open(r.spoolDir, spool.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r.sp = sp
		boot(r)
		if err := r.cl.Register(ProbeInfo{ID: id, ASN: 36924, Country: "RW", HasWired: true}); err != nil {
			t.Fatal(err)
		}
		rigs = append(rigs, r)
	}
	defer func() {
		for _, r := range rigs {
			r.sp.Close()
		}
	}()

	target := testNet.RouterAddr(15169, 0).String()
	var asg []probes.Assignment
	for i := 0; i < 30; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: probeIDs[i%len(probeIDs)],
			Task:    probes.Task{Kind: probes.TaskPing, Target: target},
		})
	}
	// Websteps work interleaves with the classic primitives, so spooled
	// archival measurements ride the same crash/redelivery machinery.
	rwSites := testWeb.Catalog().SitesFor("RW")
	if len(rwSites) < 9 {
		t.Fatalf("only %d RW sites; the websteps mix needs 9", len(rwSites))
	}
	for i := 0; i < 9; i++ {
		asg = append(asg, probes.Assignment{
			ProbeID: probeIDs[i%len(probeIDs)],
			Task:    probes.Task{Kind: probes.TaskWebsteps, Domain: rwSites[i].Domain, OriginCountry: "RW"},
		})
	}
	exp, err := admin.Submit("obs", "chaos drill", asg)
	if err != nil {
		t.Fatal(err)
	}

	// kill -9. Every other crash lands part-way through an append and
	// leaves a torn frame in place; the rest leave the journal as the last
	// acknowledged record left it, allocated zeros and all, and recovery
	// must not mistake those for a torn tail.
	torn := int64(0)
	crash := func() {
		gate.NotReady()
		if torn = 1 - torn; torn == 1 {
			tearJournal(t, dataDir, 0xba, 0xad)
		}
	}
	recover := func() {
		ctrl2, err := Recover(dataDir, cfg)
		if err != nil {
			t.Fatalf("chaos recovery: %v", err)
		}
		if got := ctrl2.DurabilityCounters()["recovery_truncated_tail"]; got != torn {
			t.Fatalf("recovery_truncated_tail = %d after a crash that tore %d frames: %v", got, torn, ctrl2.DurabilityCounters())
		}
		ctrl = ctrl2
		ctrl.ConfigureAdmission(admission)
		gate.Ready(ctrl.Handler())
	}

	down := false
	crashed := 0
	// The chaos window is sched.Rounds; after it the weather clears and
	// the fleet gets quiet rounds to converge.
	for round := 0; round < sched.Rounds+80 && !(crashed == crashes && !down && ctrl.Done(exp.ID)); round++ {
		if down {
			recover()
			down = false
		}
		if len(sched.StartingAt(round, faultinject.EventControllerCrash)) > 0 {
			crash()
			down = true
			crashed++
		}
		// Open or close this round's censorship windows.
		open := map[string]bool{}
		for _, e := range sched.ActiveAt(round, faultinject.EventInterference) {
			open[e.Target] = true
		}
		pol.SetActive("RW", open["RW"])
		for _, r := range rigs {
			// Apply this round's weather to the probe's transport.
			parted := false
			for _, e := range sched.ActiveAt(round, faultinject.EventPartition) {
				if e.Target == r.id {
					parted = true
				}
			}
			r.ft.SetPartitioned(parted)
			flapping := false
			for _, e := range sched.ActiveAt(round, faultinject.EventLinkFlap) {
				if e.Target == r.id {
					flapping = true
				}
			}
			if flapping {
				r.ft.DropRequestProb, r.ft.DropResponseProb = 0.5, 0.5
			} else {
				r.ft.DropRequestProb, r.ft.DropResponseProb = 0.05, 0.05
			}
			for _, e := range sched.StartingAt(round, faultinject.EventProbeCycle) {
				if e.Target == r.id {
					// Power cut: process dies, disk survives, reboot.
					if err := r.sp.Close(); err != nil {
						t.Fatal(err)
					}
					sp, err := spool.Open(r.spoolDir, spool.Options{})
					if err != nil {
						t.Fatal(err)
					}
					r.sp = sp
					r.cycles++
					boot(r)
				}
			}
			// Chaos-induced failures are the point; the spool holds
			// whatever could not be delivered this round.
			if _, err := DrainWithSync(r.cl, r.agent, r.sp, 0); err != nil {
				_ = heartbeat(r.cl, r.id)
			}
		}
		// The analyst fires more queries than the bucket refills.
		for i := 0; i < 3; i++ {
			_, _, _ = analyst.QueryAggregate(store.Filter{}, "")
		}
		if !down {
			ctrl.Tick(1)
		}
	}
	if down {
		recover()
	}
	if crashed != crashes {
		t.Fatalf("schedule fired %d controller crashes, want %d", crashed, crashes)
	}
	if !ctrl.Done(exp.ID) {
		t.Fatalf("chaos run did not converge; stats=%+v", ctrl.Stats().Counters)
	}

	// Clear weather: every spool must flush down to empty.
	for _, r := range rigs {
		r.ft.SetPartitioned(false)
		r.ft.DropRequestProb, r.ft.DropResponseProb = 0, 0
		if _, err := FlushSpool(r.cl, r.id, r.sp); err != nil {
			t.Fatalf("%s: final flush: %v", r.id, err)
		}
		if n := r.sp.Len(); n != 0 {
			t.Fatalf("%s: spool still holds %d results after the run", r.id, n)
		}
	}

	// Exactly-once completion: every task has exactly one recorded
	// result — nothing lost to a power cut, nothing double-counted from
	// redelivery.
	rs := resultsOf(t, ctrl, exp.ID)
	if len(rs) != len(asg) {
		t.Fatalf("results = %d, want %d", len(rs), len(asg))
	}
	perTask := map[string]int{}
	for _, r := range rs {
		perTask[r.TaskID]++
	}
	if len(perTask) != len(asg) {
		t.Fatalf("distinct tasks = %d, want %d", len(perTask), len(asg))
	}
	for id, n := range perTask {
		if n != 1 {
			t.Fatalf("task %s recorded %d times", id, n)
		}
	}

	// Every websteps result that made it through the chaos carries a
	// verdict from the taxonomy and a link-coherent archival measurement
	// — power cycles and redelivery must not corrupt either.
	webstepsSeen := 0
	for _, r := range rs {
		if r.Kind != probes.TaskWebsteps {
			continue
		}
		webstepsSeen++
		if !websim.ValidVerdict(r.Verdict) {
			t.Fatalf("websteps result %s has verdict %q outside the taxonomy", r.TaskID, r.Verdict)
		}
		if r.Websteps == nil {
			t.Fatalf("websteps result %s lost its archival measurement", r.TaskID)
		}
		if err := r.Websteps.Validate(); err != nil {
			t.Fatalf("websteps result %s fails link-integrity: %v", r.TaskID, err)
		}
	}
	if webstepsSeen != 9 {
		t.Fatalf("recorded %d websteps results, want 9", webstepsSeen)
	}

	// Load shedding happened on the current controller instance and is
	// observable from outside through /metrics. (Admission counters are
	// run-scoped, so force a shed post-recovery before reading.)
	for i := 0; i < 4; i++ {
		_, _, _ = analyst.QueryAggregate(store.Filter{}, "")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	shed := int64(-1)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, `obs_admission_events_total{name="requests_shed"} `); ok {
			shed, _ = strconv.ParseInt(rest, 10, 64)
		}
	}
	if shed <= 0 {
		t.Fatalf("requests_shed = %d in /metrics, want > 0", shed)
	}

	// Memory stays bounded no matter how long the chaos ran: the trace
	// ring at its fixed capacity, the store memtable under its flush
	// threshold.
	if got := ctrl.ring.Len(); got > DefaultTraceRing {
		t.Fatalf("trace ring grew to %d, bound is %d", got, DefaultTraceRing)
	}
	if got := ctrl.ResultStore().MemtableLen(); got >= flushEvery {
		t.Fatalf("memtable holds %d records, flush threshold is %d", got, flushEvery)
	}

	// The schedule really injected chaos.
	if len(sched.Events) == 0 {
		t.Fatal("empty chaos schedule; the drill tested nothing")
	}
	injected := int64(0)
	for _, r := range rigs {
		for k, v := range r.ft.Stats() {
			if k != "passed" {
				injected += v
			}
		}
	}
	if injected == 0 {
		t.Fatal("no transport faults injected; the drill tested nothing")
	}
}
