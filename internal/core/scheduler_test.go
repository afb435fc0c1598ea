package core

// scheduler_test.go exercises the bias-aware lease scheduler: the
// per-dimension allowance rule, the TVD skew score, topology-derived
// targets, and the headline experiment — a skewed fleet served with
// coverage targets ends up measurably less biased than naive FIFO, on
// every seed.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

func TestCoverageAllowance(t *testing.T) {
	served := map[string]int64{"NG": 60, "KE": 10}
	targets := map[string]float64{"NG": 0.25, "KE": 0.25, "ZA": 0.25}
	cases := []struct {
		key  string
		max  int
		want int
	}{
		{"NG", 8, 3}, // share 0.6 vs target 0.25 → 8*0.25/0.6 = 3.33 → 3
		{"KE", 8, 8}, // share 0.1 under target → full ask
		{"ZA", 8, 8}, // never served → share 0 → full ask
		{"GH", 8, 1}, // no target weight → throttled to 1, never 0
		{"NG", 1, 1}, // max<=1 passes through (nothing to trim)
		{"NG", 0, 0}, // no-lease ask untouched
		{"NG", 100, 41},
	}
	for _, tc := range cases {
		if got := coverageAllowance(served, 100, targets, tc.key, tc.max); got != tc.want {
			t.Errorf("coverageAllowance(%q, max=%d) = %d, want %d", tc.key, tc.max, got, tc.want)
		}
	}
	// Disabled dimensions pass the ask through.
	if got := coverageAllowance(served, 100, nil, "NG", 8); got != 8 {
		t.Errorf("no targets: got %d, want 8", got)
	}
	if got := coverageAllowance(served, 0, targets, "NG", 8); got != 8 {
		t.Errorf("no history: got %d, want 8", got)
	}
}

// TestAllowanceCombinesDimensions: the grant takes the stricter of the
// country and ASN allowances.
func TestAllowanceCombinesDimensions(t *testing.T) {
	c := NewController()
	c.ConfigureCoverage(CoverageTargets{
		Country: map[string]float64{"NG": 0.5, "KE": 0.5},
		ASN:     map[string]float64{"100": 0.1, "200": 0.9},
	})
	c.mu.Lock()
	c.servedTotal = 100
	c.servedCountry = map[string]int64{"NG": 50} // exactly at target → full ask
	c.servedASN = map[string]int64{"100": 50}    // 5x over target → trimmed
	got := c.allowance(ProbeInfo{ID: "p", ASN: 100, Country: "NG"}, 10)
	c.mu.Unlock()
	if got != 2 { // 10 * 0.1/0.5
		t.Fatalf("combined allowance = %d, want 2 (ASN dimension is stricter)", got)
	}
}

func TestCoverageSkew(t *testing.T) {
	targets := map[string]float64{"NG": 0.5, "KE": 0.5}
	if got := CoverageSkew(map[string]int64{"NG": 5, "KE": 5}, 10, targets); got != 0 {
		t.Fatalf("balanced fleet skew = %v, want 0", got)
	}
	// All mass on NG: |1-0.5| + |0-0.5| = 1 → TVD 0.5.
	if got := CoverageSkew(map[string]int64{"NG": 10}, 10, targets); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("one-sided fleet skew = %v, want 0.5", got)
	}
	// Served mass entirely outside the target support → TVD 1.
	if got := CoverageSkew(map[string]int64{"ZA": 10}, 10, targets); math.Abs(got-1) > 1e-12 {
		t.Fatalf("misplaced fleet skew = %v, want 1", got)
	}
	if got := CoverageSkew(nil, 0, targets); got != 0 {
		t.Fatalf("empty history skew = %v, want 0", got)
	}
}

func TestCoverageFromTopology(t *testing.T) {
	topo := topology.Generate(topology.DefaultParams())
	ct := CoverageFromTopology(topo)
	if len(ct.ASN) != len(topo.ASNs()) {
		t.Fatalf("ASN targets cover %d of %d ASes", len(ct.ASN), len(topo.ASNs()))
	}
	var sumA, sumC float64
	for _, v := range ct.ASN {
		sumA += v
	}
	for _, v := range ct.Country {
		sumC += v
	}
	if math.Abs(sumA-1) > 1e-9 || math.Abs(sumC-1) > 1e-9 {
		t.Fatalf("target shares sum to %v (ASN) / %v (country), want 1", sumA, sumC)
	}
}

// TestBiasSchedulingReducesSkew is the satellite experiment in unit
// form (cmd/fleetsim -bias runs the same shape at scale): a fleet with
// 55% of probes crowded into one country, drained twice — naive FIFO vs
// uniform coverage targets. The scheduler must cut country skew on
// every seed.
func TestBiasSchedulingReducesSkew(t *testing.T) {
	countries := []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}
	uniform := map[string]float64{}
	for _, cc := range countries {
		uniform[cc] = 1.0 / float64(len(countries))
	}
	for _, seed := range []int64{1, 2, 3} {
		naive := biasTrialSkew(t, seed, countries, CoverageTargets{})
		biased := biasTrialSkew(t, seed, countries, CoverageTargets{Country: uniform})
		t.Logf("seed %d: naive skew %.3f, biased skew %.3f", seed, naive, biased)
		if biased >= naive {
			t.Errorf("seed %d: coverage targets did not reduce skew (naive %.3f, biased %.3f)",
				seed, naive, biased)
		}
	}
}

// biasTrialSkew builds a skewed fleet (55% in countries[0]), feeds it
// rounds of work, drains with 4-task lease asks in seeded random visit
// order, and returns the final country skew against uniform shares.
func biasTrialSkew(t *testing.T, seed int64, countries []string, targets CoverageTargets) float64 {
	t.Helper()
	const nProbes, rounds, perWave, perLease = 120, 6, 3, 4
	rng := rand.New(rand.NewSource(seed))
	c := NewController("fleet")
	c.ConfigureCoverage(targets)
	ids := make([]string, nProbes)
	for i := range ids {
		cc := countries[0]
		if float64(i) >= 0.55*nProbes {
			cc = countries[1+rng.Intn(len(countries)-1)]
		}
		ids[i] = fmt.Sprintf("bp-%03d", i)
		if err := c.RegisterProbe(ProbeInfo{ID: ids[i], ASN: topology.ASN(36900 + i), Country: cc}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds; round++ {
		var as []probes.Assignment
		for _, id := range ids {
			as = append(as, pingAssignments(id, perWave)...)
		}
		if _, err := c.SubmitExperiment("fleet", "bias wave", as); err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(nProbes) {
			for _, task := range c.leaseTasks(ids[i], perLease) {
				if _, err := c.submitResults(ids[i], []probes.Result{okResult(task)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	uniform := map[string]float64{}
	for _, cc := range countries {
		uniform[cc] = 1.0 / float64(len(countries))
	}
	rep := c.Coverage()
	if rep.ServedTotal == 0 {
		t.Fatal("trial served nothing")
	}
	return CoverageSkew(rep.Country, rep.ServedTotal, uniform)
}
