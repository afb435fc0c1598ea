package probes

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/content"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/topology"
)

var (
	testTopo = topology.Generate(topology.DefaultParams())
	testNet  = netsim.New(testTopo, bgp.New(testTopo), 42)
	testDNS  = dnssim.New(testNet, 42)
	testWeb  = content.New(testNet, 42)
)

const kigali = topology.ASN(36924)

func TestPerMB(t *testing.T) {
	p := PerMB{RatePerMB: 0.5}
	if got := p.Cost(0, 2<<20); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("2 MB at 0.5 = %v", got)
	}
	if p.Cost(1<<30, 0) != 0 {
		t.Fatal("zero bytes should be free")
	}
}

func TestPrepaidBundleBoundaries(t *testing.T) {
	p := PrepaidBundle{BundleMB: 10, BundlePrice: 2}
	mb := int64(1 << 20)
	cases := []struct {
		used, extra int64
		want        float64
	}{
		{0, 1, 2},           // first byte buys the first bundle
		{1, 9*mb - 1, 0},    // still inside bundle one
		{9 * mb, 1 * mb, 0}, // exactly fills bundle one
		{10 * mb, 1, 2},     // next byte buys bundle two
		{0, 25 * mb, 6},     // three bundles at once
		{5 * mb, 0, 0},      // nothing new
	}
	for _, c := range cases {
		if got := p.Cost(c.used, c.extra); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Cost(%d,%d) = %v, want %v", c.used, c.extra, got, c.want)
		}
	}
}

func TestPrepaidBundleMonotonic(t *testing.T) {
	p := PrepaidBundle{BundleMB: 5, BundlePrice: 1}
	f := func(used, extraA, extraB uint32) bool {
		a, b := int64(extraA%(100<<20)), int64(extraB%(100<<20))
		if a > b {
			a, b = b, a
		}
		u := int64(used % (100 << 20))
		return p.Cost(u, a) <= p.Cost(u, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBudgetChargeAndExhaustion(t *testing.T) {
	b := NewBudget(PerMB{RatePerMB: 1}, 2.0)
	if err := b.Charge(1 << 20); err != nil {
		t.Fatal(err)
	}
	if b.spent != 1 || b.Remaining() != 1 {
		t.Fatalf("spent=%v remaining=%v", b.spent, b.Remaining())
	}
	if err := b.Charge(2 << 20); err != ErrBudgetExhausted {
		t.Fatalf("over-budget charge err = %v", err)
	}
	// Failed charge leaves no side effects.
	if b.spent != 1 || b.UsedBytes() != 1<<20 {
		t.Fatal("failed charge mutated the budget")
	}
	if err := b.Charge(1 << 20); err != nil {
		t.Fatal("exact-fit charge should succeed")
	}
}

func TestTaskEstimatedBytes(t *testing.T) {
	for _, k := range []TaskKind{TaskPing, TaskTraceroute, TaskDNS, TaskHTTPFetch} {
		if (Task{Kind: k}).EstimatedBytes() <= 0 {
			t.Fatalf("%s estimate not positive", k)
		}
	}
	one := (Task{Kind: TaskPing, Repeat: 1}).EstimatedBytes()
	three := (Task{Kind: TaskPing, Repeat: 3}).EstimatedBytes()
	if three != 3*one {
		t.Fatalf("repeat scaling wrong: %d vs %d", three, one)
	}
	if (Task{Kind: TaskHTTPFetch}).EstimatedBytes() <= (Task{Kind: TaskPing}).EstimatedBytes() {
		t.Fatal("a fetch must cost more than a ping")
	}
}

func newTestAgent(id string, wired bool, budget *Budget) *Agent {
	return NewAgent(Config{ID: id, ASN: kigali, HasWired: wired, CellBudget: budget},
		testNet, testDNS, testWeb)
}

func TestAgentExecutesEveryKind(t *testing.T) {
	a := newTestAgent("p1", true, nil)
	target := testNet.RouterAddr(15169, 0).String()
	tasks := []Task{
		{ID: "1", Kind: TaskPing, Target: target},
		{ID: "2", Kind: TaskTraceroute, Target: target},
		{ID: "3", Kind: TaskDNS, Domain: "site0.RW", OriginCountry: "RW"},
		{ID: "4", Kind: TaskHTTPFetch, Domain: "site0.RW", OriginCountry: "RW"},
	}
	for _, task := range tasks {
		res, err := a.Execute(task)
		if err != nil {
			t.Fatalf("%s: %v", task.Kind, err)
		}
		if res.Kind != task.Kind || res.Interface != string(IfaceWired) {
			t.Fatalf("%s: malformed result %+v", task.Kind, res)
		}
	}
}

func TestAgentTracerouteHops(t *testing.T) {
	a := newTestAgent("p2", true, nil)
	res, err := a.Execute(Task{ID: "t", Kind: TaskTraceroute, Target: testNet.RouterAddr(15169, 0).String()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) == 0 {
		t.Fatal("no hops in result")
	}
}

func TestAgentBudgetEnforced(t *testing.T) {
	// A budget that affords exactly one bundle of one traceroute-ish size.
	b := NewBudget(PrepaidBundle{BundleMB: 1, BundlePrice: 1}, 1.0)
	a := newTestAgent("p3", false, b)
	target := testNet.RouterAddr(15169, 0).String()
	if _, err := a.Execute(Task{ID: "1", Kind: TaskTraceroute, Target: target}); err != nil {
		t.Fatalf("first task should fit: %v", err)
	}
	// Burn through the rest of the bundle.
	for i := 0; i < 1000; i++ {
		if _, err := a.Execute(Task{ID: "x", Kind: TaskTraceroute, Target: target}); err == ErrBudgetExhausted {
			return // enforced
		}
	}
	t.Fatal("budget never exhausted")
}

func TestAgentCellularCostReported(t *testing.T) {
	b := NewBudget(PerMB{RatePerMB: 100}, 50.0)
	a := newTestAgent("p4", false, b)
	res, err := a.Execute(Task{ID: "1", Kind: TaskPing, Target: testNet.RouterAddr(15169, 0).String()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interface != string(IfaceCellular) || res.CostPaid <= 0 {
		t.Fatalf("cellular accounting missing: %+v", res)
	}
}

func TestPowerOutage(t *testing.T) {
	pm := NewPowerModel(1, 1.0) // always out
	a := NewAgent(Config{ID: "p5", ASN: kigali, HasWired: true, Power: pm}, testNet, testDNS, testWeb)
	if _, err := a.Execute(Task{ID: "1", Kind: TaskPing, Target: "1.2.3.4"}); err != ErrPowerOut {
		t.Fatalf("err = %v, want ErrPowerOut", err)
	}
	pm2 := NewPowerModel(1, 0.0) // never out
	if !pm2.Up("x", 5) {
		t.Fatal("zero outage probability should always be up")
	}
}

func TestPowerModelDeterministic(t *testing.T) {
	pm := NewPowerModel(9, 0.5)
	for h := 0; h < 50; h++ {
		if pm.Up("probe", h) != pm.Up("probe", h) {
			t.Fatal("power model not deterministic")
		}
	}
}

func TestScheduleBudgetAwareRespectsBudgets(t *testing.T) {
	// One wired (free) agent and one broke cellular agent: everything
	// must land on the wired one.
	wired := newTestAgent("wired", true, nil)
	broke := newTestAgent("broke", false, NewBudget(PerMB{RatePerMB: 1000}, 0.001))
	var tasks []Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, Task{ID: string(rune('a' + i)), Kind: TaskPing, Target: "80.0.0.1", Value: 1})
	}
	out := ScheduleBudgetAware([]*Agent{wired, broke}, tasks)
	if len(out) != 10 {
		t.Fatalf("scheduled %d of 10", len(out))
	}
	for _, a := range out {
		if a.ProbeID != "wired" {
			t.Fatalf("task landed on the broke probe: %+v", a)
		}
	}
}

func TestScheduleBudgetAwareDropsUnaffordable(t *testing.T) {
	broke := newTestAgent("broke", false, NewBudget(PerMB{RatePerMB: 1000}, 0.0001))
	tasks := []Task{{ID: "t", Kind: TaskHTTPFetch, Domain: "site0.RW", Value: 1}}
	if out := ScheduleBudgetAware([]*Agent{broke}, tasks); len(out) != 0 {
		t.Fatalf("unaffordable task scheduled: %+v", out)
	}
}

func TestScheduleValueOrdering(t *testing.T) {
	// The scheduler must run high-value tasks first when capacity is
	// constrained.
	b := NewBudget(PrepaidBundle{BundleMB: 1, BundlePrice: 1}, 1.0) // one bundle only
	agent := newTestAgent("cell", false, b)
	tasks := []Task{
		{ID: "low", Kind: TaskHTTPFetch, Domain: "d", Value: 1},
		{ID: "high", Kind: TaskHTTPFetch, Domain: "d", Value: 10},
	}
	out := ScheduleBudgetAware([]*Agent{agent}, tasks)
	if len(out) == 0 || out[0].Task.ID != "high" {
		t.Fatalf("high-value task not first: %+v", out)
	}
}

func TestScheduleRoundRobinDealsEvenly(t *testing.T) {
	a1 := newTestAgent("a1", true, nil)
	a2 := newTestAgent("a2", true, nil)
	var tasks []Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, Task{ID: string(rune('a' + i)), Kind: TaskPing, Target: "80.0.0.1"})
	}
	out := ScheduleRoundRobin([]*Agent{a1, a2}, tasks)
	counts := map[string]int{}
	for _, asg := range out {
		counts[asg.ProbeID]++
	}
	if counts["a1"] != 3 || counts["a2"] != 3 {
		t.Fatalf("uneven deal: %+v", counts)
	}
}

// memSink collects sunk results; failAfter > 0 makes Append fail once
// that many results have been accepted.
type memSink struct {
	results   []Result
	failAfter int
}

func (m *memSink) Append(r Result) error {
	if m.failAfter > 0 && len(m.results) >= m.failAfter {
		return errSinkFull
	}
	m.results = append(m.results, r)
	return nil
}

var errSinkFull = fmt.Errorf("sink full")

func TestRunTasksSinksEveryResult(t *testing.T) {
	a := newTestAgent("r1", true, nil)
	target := testNet.RouterAddr(15169, 0).String()
	tasks := []Task{
		{ID: "1", Kind: TaskPing, Target: target},
		{ID: "2", Kind: TaskTraceroute, Target: target},
	}
	sink := &memSink{}
	n, err := a.RunTasks(tasks, sink)
	if err != nil || n != 2 {
		t.Fatalf("RunTasks = (%d, %v), want (2, nil)", n, err)
	}
	if len(sink.results) != 2 || sink.results[0].TaskID != "1" || sink.results[1].TaskID != "2" {
		t.Fatalf("sunk results wrong: %+v", sink.results)
	}
}

func TestRunTasksBudgetExhaustionRecordsFailures(t *testing.T) {
	// One bundle only: after it is spent, ErrBudgetExhausted fires and
	// every subsequent task must still be sunk as a failed result (the
	// controller learns the task was attempted) rather than dropped.
	b := NewBudget(PrepaidBundle{BundleMB: 1, BundlePrice: 1}, 1.0)
	a := newTestAgent("r2", false, b)
	target := testNet.RouterAddr(15169, 0).String()
	var tasks []Task
	for i := 0; i < 400; i++ {
		tasks = append(tasks, Task{ID: fmt.Sprintf("t%d", i), Kind: TaskTraceroute, Target: target})
	}
	sink := &memSink{}
	n, err := a.RunTasks(tasks, sink)
	if err != nil {
		t.Fatalf("budget exhaustion must not abort the run: %v", err)
	}
	if n != len(tasks) || len(sink.results) != len(tasks) {
		t.Fatalf("ran %d, sunk %d, want %d both", n, len(sink.results), len(tasks))
	}
	exhausted := 0
	for _, r := range sink.results {
		if r.Error == ErrBudgetExhausted.Error() {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("no task recorded as budget-exhausted")
	}
	if last := sink.results[len(sink.results)-1]; last.Error != ErrBudgetExhausted.Error() {
		t.Fatalf("final task should have failed on budget, got %+v", last)
	}
}

func TestRunTasksPowerOutageAbortsWithoutExecuting(t *testing.T) {
	pm := NewPowerModel(1, 1.0) // always out
	a := NewAgent(Config{ID: "r3", ASN: kigali, HasWired: true, Power: pm}, testNet, testDNS, testWeb)
	sink := &memSink{}
	n, err := a.RunTasks([]Task{
		{ID: "1", Kind: TaskPing, Target: "1.2.3.4"},
		{ID: "2", Kind: TaskPing, Target: "1.2.3.4"},
	}, sink)
	if err != ErrPowerOut {
		t.Fatalf("err = %v, want ErrPowerOut", err)
	}
	if n != 0 || len(sink.results) != 0 {
		t.Fatalf("an off probe executed work: n=%d sunk=%d", n, len(sink.results))
	}
}

func TestRunTasksSinkFailureStopsRun(t *testing.T) {
	a := newTestAgent("r4", true, nil)
	target := testNet.RouterAddr(15169, 0).String()
	tasks := []Task{
		{ID: "1", Kind: TaskPing, Target: target},
		{ID: "2", Kind: TaskPing, Target: target},
		{ID: "3", Kind: TaskPing, Target: target},
	}
	sink := &memSink{failAfter: 1}
	n, err := a.RunTasks(tasks, sink)
	if err == nil {
		t.Fatal("sink failure must surface")
	}
	if n != 1 {
		t.Fatalf("executed %d past a dead sink, want 1", n)
	}
}

func TestTargetAddrErrors(t *testing.T) {
	if _, err := (Task{ID: "x", Kind: TaskPing}).TargetAddr(); err == nil {
		t.Fatal("missing target should error")
	}
	if _, err := (Task{ID: "x", Target: "bogus"}).TargetAddr(); err == nil {
		t.Fatal("bad target should error")
	}
}

func TestAgentUnknownKind(t *testing.T) {
	a := newTestAgent("p9", true, nil)
	if _, err := a.Execute(Task{ID: "1", Kind: "nonsense"}); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestAgentExecutesDNSLoad(t *testing.T) {
	a := newTestAgent("p10", true, nil)
	task := Task{ID: "dl1", Experiment: "exp", Kind: TaskDNSLoad,
		Domain: "site0.RW", OriginCountry: "RW", Queries: 128, ECS: true}
	res, err := a.Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("dnsload burst failed: %+v", res)
	}
	if res.ResolverChain == "" || res.ResolverKind == "" {
		t.Fatalf("missing chain metadata: %+v", res)
	}
	if !res.ECS || res.QueriesOK == 0 || res.RTTms <= 0 {
		t.Fatalf("burst stats malformed: %+v", res)
	}
	if res.Bytes != task.EstimatedBytes() || res.Bytes != 128*2*130 {
		t.Fatalf("estimated bytes = %d", res.Bytes)
	}
	// Re-executing the same task on the same probe replays identically.
	again, err := a.Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("dnsload re-execution diverged:\n first  %+v\n second %+v", res, again)
	}
}
