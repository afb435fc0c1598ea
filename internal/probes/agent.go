package probes

import (
	"fmt"

	"github.com/afrinet/observatory/internal/archival"
	"github.com/afrinet/observatory/internal/content"
	"github.com/afrinet/observatory/internal/dnsload"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
	"github.com/afrinet/observatory/internal/websim"
)

// Interface names the agent's uplinks.
type Interface string

const (
	IfaceWired    Interface = "wired"
	IfaceCellular Interface = "cellular"
)

// PowerModel simulates intermittent grid power: the probe is off during
// outage slots. Deterministic per (seed, probe, hour).
type PowerModel struct {
	seed uint64
	// OutageProb is the chance any given hour has no grid power and no
	// battery left.
	OutageProb float64
}

// NewPowerModel builds a model with the given hourly outage probability.
func NewPowerModel(seed int64, outageProb float64) *PowerModel {
	return &PowerModel{seed: uint64(seed), OutageProb: outageProb}
}

// Up reports whether the probe has power in the given absolute hour.
func (p *PowerModel) Up(probeID string, hour int) bool {
	if p == nil {
		return true
	}
	return splitmix.Unit(splitmix.Mix(splitmix.String(p.seed, probeID)^uint64(hour))) >= p.OutageProb
}

// Config describes one agent.
type Config struct {
	ID  string
	ASN topology.ASN // hosting network
	// HasWired is true when the site has fixed broadband; the cellular
	// dongle is always present (mobile focus).
	HasWired bool
	// CellBudget meters the cellular interface; nil means unmetered.
	CellBudget *Budget
	// Power models grid reliability; nil means always up.
	Power *PowerModel
}

// Agent executes measurement tasks against the simulated data plane.
// It is the in-process equivalent of the observatory's probe binary;
// cmd/obsprobe wraps it behind the HTTP task protocol.
type Agent struct {
	cfg Config
	net *netsim.Net
	dns *dnssim.System
	web *content.System
	// websteps is the step-following measurement engine; nil until
	// EnableWebsteps, since most fleets run only the classic primitives.
	websteps *websim.Engine

	// Hour is the agent's notion of time-of-day (advanced by the
	// harness; no wall-clock dependence so runs are reproducible).
	Hour int
}

// NewAgent builds an agent bound to the simulated plane. dns and web may
// be nil when the agent only runs ping/traceroute work.
func NewAgent(cfg Config, n *netsim.Net, dns *dnssim.System, web *content.System) *Agent {
	return &Agent{cfg: cfg, net: n, dns: dns, web: web}
}

// EnableWebsteps arms the agent with a step-following web measurement
// engine so it can execute TaskWebsteps assignments. Kept out of
// NewAgent: only censorship-capable deployments carry the engine, and
// existing call sites stay source-compatible.
func (a *Agent) EnableWebsteps(e *websim.Engine) { a.websteps = e }

// ID returns the agent id.
func (a *Agent) ID() string { return a.cfg.ID }

// ASN returns the hosting network.
func (a *Agent) ASN() topology.ASN { return a.cfg.ASN }

// ErrPowerOut reports a probe offline due to a power outage.
var ErrPowerOut = fmt.Errorf("probes: probe is down (power outage)")

// Execute runs one task and returns its result. Interface selection is
// cost-aware: wired when available (unmetered), else cellular within
// budget; budget exhaustion fails the task rather than overspending.
func (a *Agent) Execute(t Task) (Result, error) {
	res := Result{TaskID: t.ID, Experiment: t.Experiment, ProbeID: a.cfg.ID, Kind: t.Kind}

	if a.cfg.Power != nil && !a.cfg.Power.Up(a.cfg.ID, a.Hour) {
		return res, ErrPowerOut
	}

	bytes := t.EstimatedBytes()
	iface := IfaceWired
	if !a.cfg.HasWired {
		iface = IfaceCellular
	}
	if iface == IfaceCellular && a.cfg.CellBudget != nil {
		cost := a.cfg.CellBudget.CostOf(bytes)
		if err := a.cfg.CellBudget.Charge(bytes); err != nil {
			res.Error = err.Error()
			return res, err
		}
		res.CostPaid = cost
	}
	res.Interface = string(iface)
	res.Bytes = bytes

	switch t.Kind {
	case TaskPing:
		addr, err := t.TargetAddr()
		if err != nil {
			res.Error = err.Error()
			return res, err
		}
		rtt, ok := a.net.Ping(a.cfg.ASN, addr)
		res.OK = ok
		res.RTTms = rtt
	case TaskTraceroute:
		addr, err := t.TargetAddr()
		if err != nil {
			res.Error = err.Error()
			return res, err
		}
		tr := a.net.Traceroute(a.cfg.ASN, addr)
		res.OK = tr.Reached
		res.RTTms = tr.RTT
		for _, h := range tr.Hops {
			hr := HopRecord{TTL: h.TTL, RTT: h.RTT}
			if h.Addr != 0 {
				hr.Addr = h.Addr.String()
			}
			res.Hops = append(res.Hops, hr)
		}
	case TaskDNS:
		if a.dns == nil {
			res.Error = "agent has no dns engine"
			return res, fmt.Errorf("probes: %s", res.Error)
		}
		r := a.dns.Resolve(a.cfg.ASN, t.Domain, t.OriginCountry)
		res.OK = r.OK
		res.RTTms = r.LatencyMs
		res.ResolverKind = r.Resolver.Kind.String()
		res.ResolverCountry = r.Resolver.Country
		res.AuthCountry = r.Auth.Country
		if !r.OK {
			res.Error = r.FailReason
		}
	case TaskDNSLoad:
		if a.dns == nil {
			res.Error = "agent has no dns engine"
			return res, fmt.Errorf("probes: %s", res.Error)
		}
		// Burst seed derives from (probe, task) so re-execution of the
		// same task replays identically while distinct tasks decorrelate.
		h := splitmix.String(0x646e736c6f6164, a.cfg.ID+"\x00"+t.ID)
		sum := dnsload.TaskRun(a.dns, a.cfg.ASN, t.Domain, t.OriginCountry, t.Queries, t.ECS, h)
		res.OK = sum.OK
		res.RTTms = sum.MeanMs
		res.ResolverKind = sum.Kind
		res.ResolverCountry = sum.Country
		res.ResolverChain = sum.Chain
		res.ECS = sum.ECS
		res.QueriesOK = sum.Succeeded
		res.CloudAuth = sum.CloudAuth
		res.Localized = sum.Localized
		if !sum.OK {
			res.Error = "dnsload: no query succeeded"
		}
	case TaskHTTPFetch:
		if a.web == nil {
			res.Error = "agent has no web engine"
			return res, fmt.Errorf("probes: %s", res.Error)
		}
		site, ok := a.findSite(t.Domain, t.OriginCountry)
		if !ok {
			res.Error = "unknown site"
			return res, fmt.Errorf("probes: unknown site %s", t.Domain)
		}
		f := a.web.Fetch(a.cfg.ASN, site)
		res.OK = f.OK
		res.RTTms = f.RTTms
		res.ServedCountry = f.ServedCountry
		res.ServedLocal = f.LocalToAfrica
	case TaskWebsteps:
		if a.websteps == nil {
			res.Error = "agent has no websteps engine"
			return res, fmt.Errorf("probes: %s", res.Error)
		}
		site, ok := a.findSite(t.Domain, t.OriginCountry)
		if !ok {
			res.Error = "unknown site"
			return res, fmt.Errorf("probes: unknown site %s", t.Domain)
		}
		m := a.websteps.Measure(a.cfg.ASN, site)
		// A blocked page is still a successful measurement: OK says the
		// websteps run completed, the verdict says what it found.
		res.OK = true
		res.Verdict = websim.Classify(m)
		res.Websteps = m
		res.ResolverKind = m.ResolverClass
		for _, d := range m.DNS {
			res.RTTms += d.LatencyMs
			if d.Origin == archival.OriginProbe && res.ResolverCountry == "" {
				res.ResolverCountry = d.ResolverCountry
			}
		}
	default:
		res.Error = "unknown task kind"
		return res, fmt.Errorf("probes: unknown task kind %q", t.Kind)
	}
	return res, nil
}

// ResultSink receives each executed result before the next task runs.
// The durable implementation is internal/spool, which persists results
// to disk before any upload is attempted; tests use in-memory sinks.
// (The interface lives here, not in spool, so the dependency points
// outward: spool imports probes for Result, never the reverse.)
type ResultSink interface {
	Append(Result) error
}

// RunTasks executes tasks in order, handing each result to sink before
// moving on, so a probe killed mid-batch loses at most the task it was
// executing — never a completed-but-unpersisted result.
//
// A power outage aborts the run immediately with ErrPowerOut and sinks
// nothing for the remaining tasks: an off probe runs nothing, and the
// controller's lease expiry requeues the work. Budget exhaustion and
// other task-level failures are field conditions, not aborts — the
// failed result (Error set) is sunk like any other so the controller
// learns the task was attempted. A sink failure stops the run: when the
// durability layer cannot accept a result, executing more tasks would
// strand their results.
func (a *Agent) RunTasks(tasks []Task, sink ResultSink) (int, error) {
	done := 0
	for _, t := range tasks {
		res, err := a.Execute(t)
		if err == ErrPowerOut {
			return done, ErrPowerOut
		}
		if err != nil && res.Error == "" {
			res.Error = err.Error()
		}
		if err := sink.Append(res); err != nil {
			return done, fmt.Errorf("probes: sinking result for task %s: %w", t.ID, err)
		}
		done++
	}
	return done, nil
}

func (a *Agent) findSite(domain, ctry string) (content.Site, bool) {
	if ctry != "" {
		for _, s := range a.web.Catalog().SitesFor(ctry) {
			if s.Domain == domain {
				return s, true
			}
		}
	}
	for _, c := range a.web.Catalog().Countries() {
		for _, s := range a.web.Catalog().SitesFor(c) {
			if s.Domain == domain {
				return s, true
			}
		}
	}
	return content.Site{}, false
}
