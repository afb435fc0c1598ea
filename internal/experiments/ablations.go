package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/ixp"
	"github.com/afrinet/observatory/internal/outage"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/report"
	"github.com/afrinet/observatory/internal/topology"
)

// The ablations quantify the design choices DESIGN.md calls out.

// PlacementAblationRow compares placement strategies at one budget.
type PlacementAblationRow struct {
	Probes   int
	Targeted int // exchanges covered by membership
	Atlas    int
	Random   int
}

// PlacementAblation measures exchange coverage per probe budget for the
// observatory's set-cover placement vs the Atlas-like and random
// baselines.
type PlacementAblation struct {
	Rows     []PlacementAblationRow
	Universe int
}

// AblationPlacement runs the sweep.
func AblationPlacement(env *Env) PlacementAblation {
	dir := registry.AfricanIXPs(env.Topo)
	cover := ixp.GreedySetCover(dir)
	targetedAll := cover.Chosen

	var africanASNs []topology.ASN
	for _, a := range env.Topo.ASNs() {
		as := env.Topo.ASes[a]
		if as.Region.IsAfrica() && as.Type != topology.ASIXPRouteServer {
			africanASNs = append(africanASNs, a)
		}
	}
	rng := rand.New(rand.NewSource(env.Seed))
	random := append([]topology.ASN(nil), africanASNs...)
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })

	res := PlacementAblation{Universe: len(dir)}
	for _, n := range []int{5, 10, 20, 30, 40, 50} {
		row := PlacementAblationRow{Probes: n}
		row.Targeted = ixp.CoverageOf(dir, capList(targetedAll, n))
		row.Atlas = ixp.CoverageOf(dir, core.AtlasPlacement(env.Topo, n))
		row.Random = ixp.CoverageOf(dir, capList(random, n))
		res.Rows = append(res.Rows, row)
	}
	return res
}

func capList(xs []topology.ASN, n int) []topology.ASN {
	if n > len(xs) {
		n = len(xs)
	}
	return xs[:n]
}

// Render writes the placement ablation.
func (r PlacementAblation) Render(w io.Writer) {
	tb := report.NewTable(
		fmt.Sprintf("Ablation — IXP coverage by placement strategy (of %d exchanges)", r.Universe),
		"probes", "set-cover", "atlas-like", "random")
	for _, row := range r.Rows {
		tb.AddRow(row.Probes, row.Targeted, row.Atlas, row.Random)
	}
	tb.Render(w)
}

// BudgetAblation compares the cost-aware scheduler with naive
// round-robin under prepaid-bundle pricing.
type BudgetAblation struct {
	TasksOffered       int
	BudgetAwareDone    int
	BudgetAwareSpend   float64
	RoundRobinDone     int
	RoundRobinSpend    float64
	RoundRobinFailures int
}

// AblationBudget runs the comparison: a fleet of cellular-only probes
// with prepaid bundles executes a traceroute campaign scheduled both
// ways.
func AblationBudget(env *Env) BudgetAblation {
	mkAgents := func() []*probes.Agent {
		var agents []*probes.Agent
		i := 0
		for _, asn := range core.TargetedPlacement(env.Topo) {
			if i >= 12 {
				break
			}
			i++
			cfg := probes.Config{
				ID:  fmt.Sprintf("cell-%02d", i),
				ASN: asn,
				// Cellular-only with a prepaid budget; bundle sizes and
				// prices differ per market.
				CellBudget: probes.NewBudget(probes.PrepaidBundle{
					BundleMB:    int64(5 + i%4*5),
					BundlePrice: 1.0 + float64(i%3)*0.5,
				}, 6.0),
			}
			agents = append(agents, probes.NewAgent(cfg, env.Net, env.DNS, env.Web))
		}
		return agents
	}

	var tasks []probes.Task
	targets := core.CableSpanTargets(env.Topo, env.Net)
	for i, tgt := range targets {
		for r := 0; r < 30; r++ {
			tasks = append(tasks, probes.Task{
				ID:     fmt.Sprintf("t-%03d-%02d", i, r),
				Kind:   probes.TaskTraceroute,
				Target: tgt.String(),
				Value:  float64(1 + i%3),
			})
		}
	}

	run := func(agents []*probes.Agent, as []probes.Assignment) (done int, spend float64, failures int) {
		byID := map[string]*probes.Agent{}
		for _, a := range agents {
			byID[a.ID()] = a
		}
		for _, asg := range as {
			agent := byID[asg.ProbeID]
			if agent == nil {
				continue
			}
			res, err := agent.Execute(asg.Task)
			if err != nil {
				failures++
				continue
			}
			done++
			spend += res.CostPaid
		}
		return done, spend, failures
	}

	res := BudgetAblation{TasksOffered: len(tasks)}

	agents := mkAgents()
	aware := probes.ScheduleBudgetAware(agents, tasks)
	res.BudgetAwareDone, res.BudgetAwareSpend, _ = run(agents, aware)

	agents = mkAgents() // fresh budgets
	rr := probes.ScheduleRoundRobin(agents, tasks)
	var rrFail int
	res.RoundRobinDone, res.RoundRobinSpend, rrFail = run(agents, rr)
	res.RoundRobinFailures = rrFail
	return res
}

// Render writes the budget ablation.
func (r BudgetAblation) Render(w io.Writer) {
	tb := report.NewTable("Ablation — budget-aware scheduling vs round-robin (prepaid bundles)",
		"scheduler", "tasks done", "money spent", "failed (budget)")
	tb.AddRow("budget-aware", r.BudgetAwareDone, fmt.Sprintf("%.2f", r.BudgetAwareSpend), 0)
	tb.AddRow("round-robin", r.RoundRobinDone, fmt.Sprintf("%.2f", r.RoundRobinSpend), r.RoundRobinFailures)
	tb.Render(w)
	fmt.Fprintf(w, "offered: %d tasks; budget-aware completes %.1fx the work per unit spend\n",
		r.TasksOffered, perSpend(r.BudgetAwareDone, r.BudgetAwareSpend)/perSpendSafe(r.RoundRobinDone, r.RoundRobinSpend))
}

func perSpend(done int, spend float64) float64 {
	if spend == 0 {
		return float64(done)
	}
	return float64(done) / spend
}

func perSpendSafe(done int, spend float64) float64 {
	v := perSpend(done, spend)
	if v == 0 {
		return 1
	}
	return v
}

// CorrelationAblation compares corridor-correlated cable cuts with the
// independent-failure assumption legislation implicitly makes.
type CorrelationAblation struct {
	Events                int
	CorrelatedMeanImpact  float64 // countries affected per event
	IndependentMeanImpact float64
}

// AblationCorrelatedCuts runs matched event sequences with the corridor
// model on and off.
func AblationCorrelatedCuts(env *Env) CorrelationAblation {
	run := func(correlated bool) float64 {
		model := outage.NewModel(env.Net, env.Seed+99)
		model.CorrelatedCuts = correlated
		events := model.GenerateEvents(2)
		total, n := 0, 0
		for _, ev := range events {
			if ev.Cause != outage.CauseCableCut || !ev.Region.IsAfrica() {
				continue
			}
			imp := model.Evaluate(ev)
			total += len(imp.CountriesAffected)
			n++
		}
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	res := CorrelationAblation{}
	res.CorrelatedMeanImpact = run(true)
	res.IndependentMeanImpact = run(false)
	return res
}

// Render writes the correlation ablation.
func (r CorrelationAblation) Render(w io.Writer) {
	fmt.Fprintln(w, "== Ablation — correlated (corridor) vs independent cable failures ==")
	fmt.Fprintf(w, "mean countries affected per cable-cut event:\n")
	fmt.Fprintf(w, "  corridor-correlated: %.1f\n", r.CorrelatedMeanImpact)
	fmt.Fprintf(w, "  independent single cable: %.1f\n", r.IndependentMeanImpact)
	fmt.Fprintln(w, "(legislating backup cables without corridor diversity leaves the correlated risk)")
}
