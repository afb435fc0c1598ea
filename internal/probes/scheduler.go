package probes

import (
	"sort"
)

// Assignment pairs a task with the agent that should run it.
type Assignment struct {
	ProbeID string
	Task    Task
}

// QuoteAt prices a hypothetical transfer given a hypothetical prior
// usage — what the scheduler needs to plan without charging.
func (b *Budget) QuoteAt(used, extra int64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.model.Cost(used, extra)
}

// planState tracks a scheduler's tentative view of one agent.
type planState struct {
	agent        *Agent
	plannedUsed  int64
	plannedSpend float64
}

func (p *planState) quote(t Task) (float64, bool) {
	bytes := t.EstimatedBytes()
	if p.agent.cfg.HasWired {
		return 0, true // unmetered interface
	}
	b := p.agent.cfg.CellBudget
	if b == nil {
		return 0, true
	}
	c := b.QuoteAt(b.UsedBytes()+p.plannedUsed, bytes)
	if p.plannedSpend+c > b.Remaining()+1e-9 {
		return c, false
	}
	return c, true
}

func (p *planState) commit(t Task, cost float64) {
	if !p.agent.cfg.HasWired && p.agent.cfg.CellBudget != nil {
		p.plannedUsed += t.EstimatedBytes()
		p.plannedSpend += cost
	}
}

// ScheduleBudgetAware assigns tasks to agents so that high-value tasks
// run first and each lands on the cheapest agent that can afford it
// (wired sites are free; cellular sites pay their country's tariff).
// Tasks nobody can afford are dropped — the budget is a hard constraint,
// exactly as prepaid data is.
func ScheduleBudgetAware(agents []*Agent, tasks []Task) []Assignment {
	states := make([]*planState, len(agents))
	for i, a := range agents {
		states[i] = &planState{agent: a}
	}
	sorted := append([]Task(nil), tasks...)
	sort.SliceStable(sorted, func(i, j int) bool {
		vi, vj := sorted[i].Value, sorted[j].Value
		if vi != vj {
			return vi > vj
		}
		return sorted[i].ID < sorted[j].ID
	})

	var out []Assignment
	for _, t := range sorted {
		var best *planState
		bestCost := 0.0
		for _, st := range states {
			c, ok := st.quote(t)
			if !ok {
				continue
			}
			if best == nil || c < bestCost ||
				(c == bestCost && st.agent.ID() < best.agent.ID()) {
				best, bestCost = st, c
			}
		}
		if best == nil {
			continue // unaffordable everywhere
		}
		best.commit(t, bestCost)
		out = append(out, Assignment{ProbeID: best.agent.ID(), Task: t})
	}
	return out
}

// ScheduleRoundRobin is the naive baseline for the budget ablation: it
// deals tasks to agents in order, ignoring tariffs and budgets (tasks
// later fail at execution time when prepaid data runs out).
func ScheduleRoundRobin(agents []*Agent, tasks []Task) []Assignment {
	var out []Assignment
	if len(agents) == 0 {
		return out
	}
	for i, t := range tasks {
		out = append(out, Assignment{ProbeID: agents[i%len(agents)].ID(), Task: t})
	}
	return out
}
