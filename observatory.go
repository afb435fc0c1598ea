// Package observatory is the public API of the African Internet
// Measurements Observatory reproduction: a seeded synthetic Internet
// calibrated to Africa's connectivity structure, a measurement platform
// (controller + probe agents) designed around it, and the experiment
// drivers that regenerate every table and figure of the paper.
//
// The quickest start:
//
//	stack := observatory.NewStack(observatory.Config{Seed: 42, Year: 2025})
//	tr := stack.Net.Traceroute(36924, stack.Net.RouterAddr(15169, 0))
//	for _, hop := range tr.Hops { ... }
//
// A running platform:
//
//	ctrl := observatory.NewController("research-team")
//	srv := httptest.NewServer(ctrl.Handler())
//	cl := observatory.NewClient(srv.URL)
//	... register probes, submit experiments, collect results ...
//
// The paper's experiments:
//
//	res := observatory.Experiments(stack).Fig2aDetours()
//	res.Render(os.Stdout)
package observatory

import (
	"github.com/afrinet/observatory/internal/anycast"
	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/cable"
	"github.com/afrinet/observatory/internal/content"
	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/dnsload"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/experiments"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/geoloc"
	"github.com/afrinet/observatory/internal/ixp"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/outage"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/topology"
	"github.com/afrinet/observatory/internal/websim"
	"github.com/afrinet/observatory/internal/whatif"
)

// Re-exported core types, so downstream code works entirely through this
// package.
type (
	// ASN is an autonomous system number.
	ASN = topology.ASN
	// Topology is the generated Internet snapshot.
	Topology = topology.Topology
	// AS is one autonomous system.
	AS = topology.AS
	// IXPID identifies an exchange.
	IXPID = topology.IXPID
	// CableID identifies a subsea cable system.
	CableID = topology.CableID
	// Region is a macro-region.
	Region = geo.Region
	// Country is a gazetteer record.
	Country = geo.Country
	// Addr is an IPv4 address.
	Addr = netx.Addr
	// Prefix is an IPv4 CIDR prefix.
	Prefix = netx.Prefix
	// Router computes valley-free interdomain routes.
	Router = bgp.Router
	// Net is the data plane.
	Net = netsim.Net
	// Traceroute is a TTL-limited measurement result.
	Traceroute = netsim.Traceroute
	// DNS is the resolver/authoritative substrate.
	DNS = dnssim.System
	// DNSResolver answers DNS questions: a client's resolver chain,
	// or a wrapper around one such as a censor.
	DNSResolver = dnssim.Resolver
	// DNSQuery is one logical DNS question.
	DNSQuery = dnssim.Query
	// DNSAnswer is one resolution outcome and the path it took.
	DNSAnswer = dnssim.Answer
	// DNSLoadConfig parameterizes a rate-controlled DNS load run.
	DNSLoadConfig = dnsload.Config
	// DNSLoadReport is the aggregate outcome of one load run.
	DNSLoadReport = dnsload.Report
	// Web is the content/CDN substrate.
	Web = content.System
	// GeoDB is the commercial-grade geolocation database.
	GeoDB = geoloc.DB
	// IXPRecord is a PCH/PeeringDB-style directory entry.
	IXPRecord = registry.IXPRecord
	// Detector finds exchange crossings in traceroutes.
	Detector = ixp.Detector
	// CableInference is the Nautilus-style mapping engine.
	CableInference = cable.Inference
	// AnycastCensus is the MAnycast-style classifier.
	AnycastCensus = anycast.Census
	// AnycastVerdict is one census outcome.
	AnycastVerdict = anycast.Verdict
	// Controller is the platform control plane.
	Controller = core.Controller
	// Client is the probe-side HTTP client.
	Client = core.Client
	// ProbeInfo describes a registered vantage point.
	ProbeInfo = core.ProbeInfo
	// Agent executes measurement tasks.
	Agent = probes.Agent
	// AgentConfig configures an agent.
	AgentConfig = probes.Config
	// Task is one measurement assignment.
	Task = probes.Task
	// Result is one task outcome.
	Result = probes.Result
	// Assignment pairs a task with a probe.
	Assignment = probes.Assignment
	// Budget meters cellular data spending.
	Budget = probes.Budget
	// Scenario is a what-if counterfactual.
	Scenario = whatif.Scenario
	// ScenarioOutcome is a what-if result.
	ScenarioOutcome = whatif.Outcome
	// WhatIfEngine runs scenarios.
	WhatIfEngine = whatif.Engine
)

// Config selects a generated Internet.
type Config struct {
	// Seed drives every random choice; equal seeds give equal worlds.
	Seed int64
	// Year picks the infrastructure snapshot (2015..2025); 0 means 2025.
	Year int
}

// Stack is a fully wired simulated Internet plus the measurement layers.
type Stack struct {
	Topology  *Topology
	Router    *Router
	Net       *Net
	DNS       *DNS
	Web       *Web
	GeoDB     *GeoDB
	Directory []IXPRecord
	Detector  *Detector

	env *experiments.Env
}

// NewStack generates and wires the full stack.
func NewStack(cfg Config) *Stack {
	if cfg.Year == 0 {
		cfg.Year = 2025
	}
	env := experiments.NewEnv(cfg.Seed, cfg.Year)
	return &Stack{
		Topology:  env.Topo,
		Router:    env.Router,
		Net:       env.Net,
		DNS:       env.DNS,
		Web:       env.Web,
		GeoDB:     env.GeoDB,
		Directory: env.Dir,
		Detector:  env.Detector,
		env:       env,
	}
}

// NewController creates a platform control plane with a trusted
// experimenter cohort.
func NewController(trusted ...string) *Controller { return core.NewController(trusted...) }

// NewClient builds a probe-side client for a controller base URL.
func NewClient(base string) *Client { return core.NewClient(base) }

// NewAgent builds a measurement agent bound to this stack's data plane.
func (s *Stack) NewAgent(cfg AgentConfig) *Agent {
	return probes.NewAgent(cfg, s.Net, s.DNS, s.Web)
}

// NewWebsteps builds a step-following web measurement engine over this
// stack's data plane under the seeded default interference policy —
// the same GenerateInterference draw the repro websteps sweep uses, so
// a fleet probe armed with this engine (Agent.EnableWebsteps) reports
// verdict-for-verdict what the offline driver computes for its seed.
func (s *Stack) NewWebsteps(seed int64) *websim.Engine {
	var countries []string
	for _, c := range geo.AfricanCountries() {
		countries = append(countries, c.ISO2)
	}
	pol := outage.GenerateInterference(seed, countries)
	return websim.New(s.Net, s.DNS, s.Web, pol, seed)
}

// DNSLoad runs a rate-controlled DNS load configuration against this
// stack's resolver chains (the §5.2-at-scale measurement engine).
func (s *Stack) DNSLoad(cfg DNSLoadConfig) DNSLoadReport { return dnsload.Run(s.DNS, cfg) }

// NewWhatIf builds a scenario engine over this stack.
func (s *Stack) NewWhatIf() *WhatIfEngine { return whatif.NewEngine(s.Net, s.DNS, s.Web) }

// NewCableInference builds a Nautilus-style inference engine.
func (s *Stack) NewCableInference() *CableInference {
	return cable.NewInference(s.Topology, s.GeoDB)
}

// NewAnycastCensus builds a MAnycast-style census over this stack.
func (s *Stack) NewAnycastCensus() *AnycastCensus { return anycast.New(s.Net) }

// TargetedPlacement returns the observatory's vantage ASNs (set cover of
// exchange memberships plus per-country mobile carriers).
func (s *Stack) TargetedPlacement() []ASN { return core.TargetedPlacement(s.Topology) }

// AtlasPlacement returns the biased baseline deployment.
func (s *Stack) AtlasPlacement(n int) []ASN { return core.AtlasPlacement(s.Topology, n) }

// FindCables resolves cable names (e.g. "WACS") to ids.
func (s *Stack) FindCables(names ...string) []CableID {
	return whatif.FindCables(s.Topology, names...)
}

// AfricanIXPs returns the African slice of the exchange directory.
func (s *Stack) AfricanIXPs() []IXPRecord { return registry.AfricanIXPs(s.Topology) }

// GreedyIXPCover runs footnote 1's set-cover vantage selection.
func GreedyIXPCover(dir []IXPRecord) []ASN {
	return ixp.GreedySetCover(dir).Chosen
}

// Exp exposes the paper's experiment drivers over a stack.
type Exp struct{ env *experiments.Env }

// Experiments returns the driver set bound to the stack.
func Experiments(s *Stack) Exp { return Exp{env: s.env} }

// Fig1Growth reproduces Figure 1 (needs only the seed, not the stack).
func Fig1Growth(seed int64) experiments.GrowthResult { return experiments.Fig1Growth(seed) }

// Fig2aDetours reproduces Figure 2a.
func (e Exp) Fig2aDetours() experiments.DetourResult { return experiments.Fig2aDetours(e.env) }

// Fig2bContentLocality reproduces Figure 2b.
func (e Exp) Fig2bContentLocality() experiments.ContentLocalityResult {
	return experiments.Fig2bContentLocality(e.env)
}

// Fig2cResolverUse reproduces Figure 2c.
func (e Exp) Fig2cResolverUse() experiments.ResolverResult {
	return experiments.Fig2cResolverUse(e.env)
}

// Fig3IXPPrevalence reproduces Figure 3.
func (e Exp) Fig3IXPPrevalence() experiments.IXPPrevalenceResult {
	return experiments.Fig3IXPPrevalence(e.env)
}

// Fig4Outages reproduces Figure 4.
func (e Exp) Fig4Outages() experiments.OutageResult { return experiments.Fig4Outages(e.env) }

// Table1Scan reproduces Table 1.
func (e Exp) Table1Scan() experiments.ScanResult { return experiments.Table1Scan(e.env) }

// NautilusAmbiguity reproduces Section 6.2.
func (e Exp) NautilusAmbiguity() experiments.NautilusResult {
	return experiments.NautilusAmbiguity(e.env)
}

// SetCoverPlacement reproduces footnote 1.
func (e Exp) SetCoverPlacement() experiments.SetCoverResult {
	return experiments.SetCoverPlacement(e.env)
}

// KigaliPilot reproduces Section 7.3.
func (e Exp) KigaliPilot() experiments.PilotResult { return experiments.KigaliPilot(e.env) }

// WhatIfCableCut reproduces the envisioned what-if analysis.
func (e Exp) WhatIfCableCut() experiments.WhatIfResult { return experiments.WhatIfCableCut(e.env) }

// AnycastCensusDemo runs the §7.2 anycast workload demonstration.
func (e Exp) AnycastCensusDemo() experiments.AnycastResult { return experiments.AnycastCensus(e.env) }

// DNSLocalization runs the ECS-vs-non-ECS localization study under
// paced DNS load.
func (e Exp) DNSLocalization() experiments.DNSLocalizationResult {
	return experiments.DNSLocalization(e.env)
}

// AblationPlacement, AblationBudget, and AblationCorrelatedCuts quantify
// the design choices DESIGN.md calls out.
func (e Exp) AblationPlacement() experiments.PlacementAblation {
	return experiments.AblationPlacement(e.env)
}

// AblationBudget compares the cost-aware scheduler with round-robin.
func (e Exp) AblationBudget() experiments.BudgetAblation { return experiments.AblationBudget(e.env) }

// AblationCorrelatedCuts compares corridor-correlated and independent
// cable failures.
func (e Exp) AblationCorrelatedCuts() experiments.CorrelationAblation {
	return experiments.AblationCorrelatedCuts(e.env)
}
