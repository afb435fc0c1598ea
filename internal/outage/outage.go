// Package outage generates and analyzes Internet outages — the substrate
// behind the paper's Figure 4 and Section 5. Events follow per-region
// rates calibrated to Cloudflare Radar's observation that Africa sees
// roughly four times as many outages as Europe or North America; subsea
// cable cuts hit whole corridors at once (correlated failures) and take
// days to repair, while power events last hours.
package outage

import (
	"math/rand"
	"sort"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/topology"
)

// Cause classifies an outage event.
type Cause int

const (
	CausePower Cause = iota
	CauseCableCut
	CauseShutdown // government-ordered
	CauseDisaster // natural disaster
)

func (c Cause) String() string {
	switch c {
	case CausePower:
		return "power"
	case CauseCableCut:
		return "cable-cut"
	case CauseShutdown:
		return "shutdown"
	default:
		return "disaster"
	}
}

// Causes lists all causes in display order.
func Causes() []Cause { return []Cause{CauseCableCut, CauseShutdown, CauseDisaster, CausePower} }

// Event is one outage occurrence.
type Event struct {
	ID        int
	Cause     Cause
	Region    geo.Region
	StartDay  float64
	Duration  float64  // days
	Countries []string // directly affected (for cable cuts: filled by Impact)
	Corridor  string
	Cables    []topology.CableID
	// Severity is the direct traffic-drop fraction for non-cable causes.
	Severity float64
}

// regionRate is events/year and the cause mix for one region.
type regionRate struct {
	perYear float64
	// cause weights (power, cable, shutdown, disaster) — normalized.
	power, cable, shutdown, disaster float64
}

var rates = map[geo.Region]regionRate{
	geo.AfricaNorthern: {perYear: 8, power: 0.44, cable: 0.12, shutdown: 0.27, disaster: 0.17},
	geo.AfricaWestern:  {perYear: 14, power: 0.48, cable: 0.11, shutdown: 0.20, disaster: 0.21},
	geo.AfricaCentral:  {perYear: 9, power: 0.53, cable: 0.11, shutdown: 0.22, disaster: 0.14},
	geo.AfricaEastern:  {perYear: 12, power: 0.47, cable: 0.11, shutdown: 0.20, disaster: 0.22},
	geo.AfricaSouthern: {perYear: 6, power: 0.57, cable: 0.11, shutdown: 0.05, disaster: 0.27},
	geo.Europe:         {perYear: 26, power: 0.55, cable: 0.08, shutdown: 0.02, disaster: 0.35},
	geo.NorthAmerica:   {perYear: 24, power: 0.55, cable: 0.07, shutdown: 0.0, disaster: 0.38},
	geo.SouthAmerica:   {perYear: 20, power: 0.50, cable: 0.12, shutdown: 0.08, disaster: 0.30},
	geo.AsiaPacific:    {perYear: 26, power: 0.45, cable: 0.18, shutdown: 0.12, disaster: 0.25},
}

// corridorsByRegion lists which cable corridors each region's cuts hit.
var corridorsByRegion = map[geo.Region][]string{
	geo.AfricaNorthern: {"mediterranean", "red-sea"},
	geo.AfricaWestern:  {"west-africa-coastal"},
	geo.AfricaCentral:  {"west-africa-coastal", "south-atlantic"},
	geo.AfricaEastern:  {"red-sea", "east-africa-coastal"},
	geo.AfricaSouthern: {"west-africa-coastal", "east-africa-coastal", "south-indian"},
	geo.Europe:         {"north-atlantic", "mediterranean"},
	geo.NorthAmerica:   {"north-atlantic", "americas"},
	geo.SouthAmerica:   {"americas", "south-atlantic"},
	geo.AsiaPacific:    {"asia-pacific"},
}

// durationDays draws an event duration; cable cuts dominate the tail
// (repair ships take days to weeks), matching the paper's "subsea cable
// outages take the longest to resolve".
func durationDays(c Cause, rng *rand.Rand) float64 {
	switch c {
	case CauseCableCut:
		return 2.0 + rng.Float64()*6.0 // 2-8 days
	case CauseShutdown:
		return 0.5 + rng.Float64()*3.0 // 0.5-3.5 days
	case CauseDisaster:
		return 0.3 + rng.Float64()*1.5
	default: // power
		return 0.05 + rng.Float64()*0.4 // ~1-11 hours
	}
}

// Model generates events over a topology and evaluates their impact on
// the data plane.
type Model struct {
	net  *netsim.Net
	topo *topology.Topology
	rng  *rand.Rand

	// CorrelatedCuts toggles the corridor model: when false, a cable-cut
	// event cuts exactly one cable (the ablation in DESIGN.md).
	CorrelatedCuts bool

	// baseline caches the intact-network reachability scores. Every
	// cable-cut evaluation needs the same "before" snapshot; the stamps
	// detect any state change that would stale it.
	baseline      map[string]float64
	baselineGen   uint64
	baselineEpoch uint64
}

// NewModel builds an outage model with correlated (corridor) cuts on.
func NewModel(n *netsim.Net, seed int64) *Model {
	return &Model{net: n, topo: n.Topology(), rng: rand.New(rand.NewSource(seed)), CorrelatedCuts: true}
}

// GenerateEvents draws the event sequence for the given horizon.
func (m *Model) GenerateEvents(years float64) []Event {
	var out []Event
	id := 0
	for _, region := range geo.AllRegions() {
		rate, ok := rates[region]
		if !ok {
			continue
		}
		n := int(rate.perYear*years + 0.5)
		for i := 0; i < n; i++ {
			ev := Event{ID: id, Region: region, StartDay: m.rng.Float64() * 365 * years}
			draw := m.rng.Float64() * (rate.power + rate.cable + rate.shutdown + rate.disaster)
			switch {
			case draw < rate.power:
				ev.Cause = CausePower
				ev.Severity = 0.3 + m.rng.Float64()*0.4
			case draw < rate.power+rate.cable:
				ev.Cause = CauseCableCut
				m.pickCables(&ev)
			case draw < rate.power+rate.cable+rate.shutdown:
				ev.Cause = CauseShutdown
				ev.Severity = 0.85 + m.rng.Float64()*0.15
			default:
				ev.Cause = CauseDisaster
				ev.Severity = 0.3 + m.rng.Float64()*0.3
			}
			ev.Duration = durationDays(ev.Cause, m.rng)
			if ev.Cause != CauseCableCut {
				ev.Countries = []string{m.randomCountry(region)}
			}
			out = append(out, ev)
			id++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartDay < out[j].StartDay })
	for i := range out {
		out[i].ID = i
	}
	return out
}

// pickCables selects the corridor and the member cables a cut hits.
// Cables sharing a corridor share seabed, so one event usually severs
// several systems — the March 2024 pattern (WACS, MainOne, SAT-3, ACE).
func (m *Model) pickCables(ev *Event) {
	corridors := corridorsByRegion[ev.Region]
	ev.Corridor = corridors[m.rng.Intn(len(corridors))]
	members := m.topo.Corridors()[ev.Corridor]
	if len(members) == 0 {
		return
	}
	if !m.CorrelatedCuts {
		ev.Cables = []topology.CableID{members[m.rng.Intn(len(members))]}
		return
	}
	for _, c := range members {
		if m.rng.Float64() < 0.5 {
			ev.Cables = append(ev.Cables, c)
		}
	}
	if len(ev.Cables) == 0 {
		ev.Cables = []topology.CableID{members[m.rng.Intn(len(members))]}
	}
}

func (m *Model) randomCountry(r geo.Region) string {
	cs := geo.CountriesIn(r)
	return cs[m.rng.Intn(len(cs))].ISO2
}

// Impact quantifies one event's effect.
type Impact struct {
	Event Event
	// Drop maps each country to its traffic-drop fraction (0 = none).
	Drop map[string]float64
	// CountriesAffected lists countries with a drop above the Radar
	// detection threshold.
	CountriesAffected []string
}

// DetectThreshold is the traffic-drop fraction Radar-style detection
// needs to flag a country outage.
const DetectThreshold = 0.35

// Evaluate measures the event's impact. For cable cuts it applies the
// cuts to the data plane, measures per-country reachability degradation
// against a fixed target set, and restores the network. For direct
// events the severity applies to the named countries.
func (m *Model) Evaluate(ev Event) Impact {
	imp := Impact{Event: ev, Drop: make(map[string]float64)}
	switch ev.Cause {
	case CauseCableCut:
		before := m.baselineReachability()
		m.net.SetCablesCut(ev.Cables, true)
		after := m.reachability()
		for ctry, b := range before {
			a := after[ctry]
			if b > 0 {
				drop := 1 - a/b
				if drop > 0.01 {
					imp.Drop[ctry] = drop
				}
			}
		}
		m.net.SetCablesCut(ev.Cables, false)
	default:
		for _, ctry := range ev.Countries {
			imp.Drop[ctry] = ev.Severity
		}
	}
	for ctry, d := range imp.Drop {
		if d >= DetectThreshold {
			imp.CountriesAffected = append(imp.CountriesAffected, ctry)
		}
	}
	sort.Strings(imp.CountriesAffected)
	return imp
}

// baselineReachability returns the intact-network reachability snapshot,
// computing it at most once per (routing generation, failure epoch). The
// cut/restore cycle of every evaluated event returns the network to the
// exact baseline state (the router's whole-set invalidation is a no-op
// then), so a whole event sequence shares one "before" computation.
func (m *Model) baselineReachability() map[string]float64 {
	gen, epoch := m.net.Router().Gen(), m.net.Epoch()
	if m.baseline != nil && m.baselineGen == gen && m.baselineEpoch == epoch {
		return m.baseline
	}
	m.baseline = m.reachability()
	m.baselineGen, m.baselineEpoch = gen, epoch
	return m.baseline
}

// reachability scores each country: the mean transport quality (path up,
// weighted by compound loss) over (eyeball, target) pairs. Congestion on
// over-subscribed backups counts as degradation even when paths exist.
// Targets are the global content
// and cloud networks plus the European transit hubs — what end users
// actually talk to. Countries are scored concurrently (each writes its
// own result slot, so the map is identical to a serial sweep).
func (m *Model) reachability() map[string]float64 {
	targets := m.targets()
	countries := geo.Countries()
	type score struct {
		iso string
		val float64
		ok  bool
	}
	scores := par.Map(0, len(countries), func(i int) score {
		c := countries[i]
		eyeballs := m.eyeballs(c.ISO2, 3)
		if len(eyeballs) == 0 {
			return score{}
		}
		var sum float64
		total := 0
		for _, e := range eyeballs {
			for _, tg := range targets {
				total++
				if _, loss, ok := m.net.PathQuality(e, tg); ok {
					sum += 1 - loss
				}
			}
		}
		if total == 0 {
			return score{}
		}
		return score{iso: c.ISO2, val: sum / float64(total), ok: true}
	})
	out := make(map[string]float64)
	for _, s := range scores {
		if s.ok {
			out[s.iso] = s.val
		}
	}
	return out
}

func (m *Model) targets() []topology.ASN {
	var out []topology.ASN
	for _, a := range m.topo.ASNs() {
		as := m.topo.ASes[a]
		if as.Type == topology.ASContent || as.Type == topology.ASCloud && as.Tier == topology.TierStub {
			out = append(out, a)
		}
	}
	// Cap for cost; the biggest content networks suffice.
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

func (m *Model) eyeballs(ctry string, limit int) []topology.ASN {
	var out []topology.ASN
	for _, a := range m.topo.ASesIn(ctry) {
		as := m.topo.ASes[a]
		if as.Type == topology.ASFixedISP || as.Type == topology.ASMobileCarrier {
			out = append(out, a)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}
