package outage

import (
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/metrics"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/topology"
	"github.com/afrinet/observatory/internal/whatif"
)

var (
	testTopo = topology.Generate(topology.DefaultParams())
	testNet  = netsim.New(testTopo, bgp.New(testTopo), 42)
)

func TestGenerateEventsDeterministic(t *testing.T) {
	a := NewModel(testNet, 7).GenerateEvents(2)
	b := NewModel(testNet, 7).GenerateEvents(2)
	if len(a) != len(b) {
		t.Fatal("event counts differ")
	}
	for i := range a {
		if a[i].Cause != b[i].Cause || a[i].Region != b[i].Region || a[i].StartDay != b[i].StartDay {
			t.Fatalf("events diverge at %d", i)
		}
	}
}

func TestEventRates(t *testing.T) {
	events := NewModel(testNet, 42).GenerateEvents(2)
	byRegion := map[geo.Region]int{}
	for _, ev := range events {
		byRegion[ev.Region]++
	}
	africa := 0
	for _, r := range geo.AfricanRegions() {
		africa += byRegion[r]
	}
	if africa == 0 || byRegion[geo.Europe] == 0 {
		t.Fatal("regions missing events")
	}
	// Rates follow the table within rounding.
	for r, rate := range rates {
		want := int(rate.perYear*2 + 0.5)
		if got := byRegion[r]; got != want {
			t.Errorf("%s events = %d, want %d", r, got, want)
		}
	}
}

func TestDurationsByCause(t *testing.T) {
	events := NewModel(testNet, 42).GenerateEvents(4)
	byCause := map[Cause][]float64{}
	for _, ev := range events {
		byCause[ev.Cause] = append(byCause[ev.Cause], ev.Duration)
	}
	cable := metrics.Mean(byCause[CauseCableCut])
	power := metrics.Mean(byCause[CausePower])
	shutdown := metrics.Mean(byCause[CauseShutdown])
	if !(cable > shutdown && shutdown > power) {
		t.Fatalf("duration ordering broken: cable=%.2f shutdown=%.2f power=%.2f", cable, power, shutdown)
	}
}

func TestCorrelatedCutsHitSeveralCables(t *testing.T) {
	m := NewModel(testNet, 42)
	events := m.GenerateEvents(6)
	multi := 0
	cableEvents := 0
	for _, ev := range events {
		if ev.Cause != CauseCableCut {
			continue
		}
		cableEvents++
		if len(ev.Cables) == 0 {
			t.Fatal("cable cut with no cables")
		}
		if len(ev.Cables) > 1 {
			multi++
		}
		// All cut cables share the event's corridor.
		for _, c := range ev.Cables {
			if testTopo.Cables[c].Corridor != ev.Corridor {
				t.Fatalf("cable %d outside corridor %s", c, ev.Corridor)
			}
		}
	}
	if cableEvents == 0 || multi == 0 {
		t.Fatalf("no correlated cuts in %d cable events", cableEvents)
	}
}

func TestIndependentModeSingleCable(t *testing.T) {
	m := NewModel(testNet, 42)
	m.CorrelatedCuts = false
	for _, ev := range m.GenerateEvents(4) {
		if ev.Cause == CauseCableCut && len(ev.Cables) != 1 {
			t.Fatalf("independent mode cut %d cables", len(ev.Cables))
		}
	}
}

func TestEvaluateRestoresNetwork(t *testing.T) {
	m := NewModel(testNet, 42)
	ev := Event{
		Cause:  CauseCableCut,
		Cables: whatif.FindCables(testTopo, "WACS", "SAT-3"),
	}
	imp := m.Evaluate(ev)
	if len(testNet.CutCables()) != 0 {
		t.Fatal("Evaluate left cables cut")
	}
	if len(imp.CountriesAffected) == 0 {
		t.Fatal("a two-cable west-corridor cut should affect someone")
	}
	for _, ctry := range imp.CountriesAffected {
		if imp.Drop[ctry] < DetectThreshold {
			t.Fatalf("%s flagged below threshold (%.2f)", ctry, imp.Drop[ctry])
		}
	}
}

func TestDirectEventImpact(t *testing.T) {
	m := NewModel(testNet, 42)
	ev := Event{Cause: CauseShutdown, Countries: []string{"ET"}, Severity: 0.95}
	imp := m.Evaluate(ev)
	if len(imp.CountriesAffected) != 1 || imp.CountriesAffected[0] != "ET" {
		t.Fatalf("shutdown impact = %+v", imp.CountriesAffected)
	}
	if imp.Drop["ET"] != 0.95 {
		t.Fatalf("severity not propagated: %v", imp.Drop["ET"])
	}
}

func TestBelowThresholdNotDetected(t *testing.T) {
	m := NewModel(testNet, 42)
	ev := Event{Cause: CausePower, Countries: []string{"KE"}, Severity: 0.10}
	imp := m.Evaluate(ev)
	if len(imp.CountriesAffected) != 0 {
		t.Fatal("a 10% dip should stay under Radar's threshold")
	}
}

// TestDetectAll runs detection over an event sequence: every (event,
// country) pair whose drop crosses the threshold is one detected outage,
// as the Radar outage center lists them, in event order.
func TestDetectAll(t *testing.T) {
	m := NewModel(testNet, 42)
	events := []Event{
		{Cause: CauseShutdown, Countries: []string{"TD"}, Severity: 0.9, Duration: 2},
		{Cause: CausePower, Countries: []string{"DE"}, Severity: 0.5, Duration: 0.2},
	}
	type detected struct {
		country  string
		duration float64
	}
	var det []detected
	for _, ev := range events {
		imp := m.Evaluate(ev)
		for _, ctry := range imp.CountriesAffected {
			det = append(det, detected{ctry, imp.Event.Duration})
		}
	}
	if len(det) != 2 {
		t.Fatalf("detected %d, want 2", len(det))
	}
	if det[0].country != "TD" || geo.MustLookup(det[0].country).Region != geo.AfricaCentral {
		t.Fatalf("first detection wrong: %+v", det[0])
	}
	if det[1].duration != 0.2 {
		t.Fatalf("duration not carried: %+v", det[1])
	}
}

func TestCauseStrings(t *testing.T) {
	for _, c := range Causes() {
		if c.String() == "" {
			t.Fatal("empty cause string")
		}
	}
}
