package observatory

import (
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
)

var (
	stackOnce sync.Once
	stack     *Stack
)

func testStack(t *testing.T) *Stack {
	t.Helper()
	stackOnce.Do(func() { stack = NewStack(Config{Seed: 42, Year: 2025}) })
	return stack
}

func TestStackWiring(t *testing.T) {
	s := testStack(t)
	if s.Topology == nil || s.Router == nil || s.Net == nil || s.DNS == nil ||
		s.Web == nil || s.GeoDB == nil || s.Detector == nil {
		t.Fatal("stack incompletely wired")
	}
	if len(s.Directory) == 0 {
		t.Fatal("empty directory")
	}
	if len(s.AfricanIXPs()) != 77 {
		t.Fatalf("African IXPs = %d", len(s.AfricanIXPs()))
	}
}

func TestStackDefaultYear(t *testing.T) {
	s := NewStack(Config{Seed: 1})
	if s.Topology.Year != 2025 {
		t.Fatalf("default year = %d", s.Topology.Year)
	}
}

func TestQuickstartFlow(t *testing.T) {
	s := testStack(t)
	tr := s.Net.Traceroute(36924, s.Net.RouterAddr(15169, 0))
	if len(tr.Hops) == 0 {
		t.Fatal("empty traceroute")
	}
	origin := func(a Addr) (ASN, bool) { return s.Net.OwnerOf(a) }
	_ = s.Detector.Detect(tr, origin) // must not panic
	r := s.DNS.AssignmentFor(36924)
	if r.Kind.String() == "" {
		t.Fatal("no resolver assignment")
	}
}

func TestPlacements(t *testing.T) {
	s := testStack(t)
	targeted := s.TargetedPlacement()
	atlas := s.AtlasPlacement(48)
	if len(targeted) == 0 || len(atlas) == 0 {
		t.Fatal("placements empty")
	}
	cover := GreedyIXPCover(s.AfricanIXPs())
	if len(cover) < 15 || len(cover) > 50 {
		t.Fatalf("cover = %d ASNs", len(cover))
	}
}

func TestWhatIfFacade(t *testing.T) {
	s := testStack(t)
	eng := s.NewWhatIf()
	cut := s.FindCables("SEACOM", "EASSy")
	if len(cut) != 2 {
		t.Fatalf("east cables = %d", len(cut))
	}
	out := eng.Run(Scenario{Name: "east", CutCables: cut, Countries: []string{"KE", "TZ"}, SitesPerCountry: 4})
	if len(out.Countries) != 2 {
		t.Fatalf("countries = %d", len(out.Countries))
	}
	if n := len(s.Net.CutCables()); n != 0 {
		t.Fatalf("%d cables left cut", n)
	}
}

func TestCableInferenceFacade(t *testing.T) {
	s := testStack(t)
	inf := s.NewCableInference()
	tr := s.Net.Traceroute(36924, s.Net.RouterAddr(701, 0))
	pm := inf.MapTraceroute(tr, s.Net)
	_ = pm // mapping may be empty for some paths; the call must work
}

// TestPlatformEndToEnd runs the distributed control loop through a real
// HTTP server with two agents, including a budget-constrained one.
func TestPlatformEndToEnd(t *testing.T) {
	s := testStack(t)
	ctrl := NewController("upanzi")
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	wired := s.NewAgent(AgentConfig{ID: "w1", ASN: 36924, HasWired: true})
	cell := s.NewAgent(AgentConfig{
		ID: "c1", ASN: 36924,
		CellBudget: probes.NewBudget(probes.PrepaidBundle{BundleMB: 20, BundlePrice: 1}, 5),
	})
	for _, a := range []*Agent{wired, cell} {
		if err := cl.Register(ProbeInfo{ID: a.ID(), ASN: a.ASN(), Country: "RW"}); err != nil {
			t.Fatal(err)
		}
	}

	target := s.Net.RouterAddr(15169, 0).String()
	var asg []Assignment
	for _, id := range []string{"w1", "c1"} {
		asg = append(asg, Assignment{ProbeID: id, Task: Task{Kind: probes.TaskTraceroute, Target: target}})
	}
	exp, err := cl.Submit("upanzi", "e2e", asg)
	if err != nil {
		t.Fatal(err)
	}

	for _, a := range []*Agent{wired, cell} {
		if _, err := core.RunAgentOnce(cl, a); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := cl.Results(exp.ID)
	if err != nil || len(rs) != 2 {
		t.Fatalf("results: %v, %d", err, len(rs))
	}
	for _, r := range rs {
		if !r.OK {
			t.Fatalf("failed result %+v", r)
		}
	}
	if !ctrl.Done(exp.ID) {
		t.Fatal("experiment not done")
	}
}

func TestFig1Facade(t *testing.T) {
	r := Fig1Growth(42)
	if r.AfricaIXPGrowthPct < 400 {
		t.Fatalf("growth = %v", r.AfricaIXPGrowthPct)
	}
}

func TestExperimentsFacade(t *testing.T) {
	e := Experiments(testStack(t))
	if got := e.SetCoverPlacement(); got.Universe != 77 {
		t.Fatalf("universe = %d", got.Universe)
	}
	if got := e.Fig2cResolverUse(); len(got.Regions) != 5 {
		t.Fatalf("regions = %d", len(got.Regions))
	}
}
