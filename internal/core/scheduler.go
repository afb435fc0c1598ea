package core

// scheduler.go is the bias-aware lease scheduler. "Bias in Internet
// Measurement Platforms" (PAPERS.md) shows that raw fleet size without
// coverage-aware scheduling produces badly skewed vantage points: the
// handful of countries and networks where probes are easy to host end
// up contributing most measurements. The controller counters that at
// the lease grant — the one choke point every task passes through — by
// tallying how many tasks each country and ASN has been served and
// trimming the per-grant allowance of overrepresented vantage points,
// so underrepresented ones catch up whenever they have queued work.
//
// The scoring function is total-variation distance between the served
// share distribution and the target share distribution:
//
//	skew = 1/2 * Σ_k |served_k/total − target_k|
//
// 0 means the fleet serves exactly the target mix; 1 means the mass is
// entirely misplaced. The allowance for a probe whose class is over
// target scales the ask by target/share (floored at 1 so no class is
// ever starved outright); classes at or under target always get their
// full ask. Targets are config installed by ConfigureCoverage, not
// journaled state, so they belong on controllers without a journal. The
// served tallies, by contrast, are updated inside the journaled lease
// apply (the book's grant, book.go) and ride snapshots.

import (
	"maps"
	"strconv"

	"github.com/afrinet/observatory/internal/topology"
)

// CoverageTargets is the target share of served tasks per country and
// per ASN (decimal-string keys). Shares need not sum to 1; they are
// compared against served shares dimension by dimension. An empty map
// disables that dimension; the zero value disables the scheduler (every
// grant gets its full ask — naive FIFO).
type CoverageTargets struct {
	Country map[string]float64 `json:"country,omitempty"`
	ASN     map[string]float64 `json:"asn,omitempty"`
}

// enabled reports whether any dimension has targets.
func (t CoverageTargets) enabled() bool {
	return len(t.Country) > 0 || len(t.ASN) > 0
}

// CoverageFromTopology derives uniform targets from a topology: each AS
// gets an equal share, and a country's share is its share of the
// topology's ASes — the paper's "representative of the region's
// networks, not of where probes are easy to host" reading.
func CoverageFromTopology(t *topology.Topology) CoverageTargets {
	asns := t.ASNs()
	if len(asns) == 0 {
		return CoverageTargets{}
	}
	ct := CoverageTargets{
		Country: make(map[string]float64),
		ASN:     make(map[string]float64, len(asns)),
	}
	per := 1.0 / float64(len(asns))
	for _, a := range asns {
		ct.ASN[asnKey(a)] = per
		if as := t.ASes[a]; as != nil {
			ct.Country[as.Country] += per
		}
	}
	return ct
}

func asnKey(a topology.ASN) string {
	return strconv.FormatUint(uint64(a), 10)
}

// ConfigureCoverage installs (or, with the zero value, removes) the
// scheduler's targets. Targets are not journaled and a recovery does not
// restore them, so replay would grant other leases than the run it
// replays: they belong on controllers without a journal.
func (c *Controller) ConfigureCoverage(t CoverageTargets) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.coverage = t
}

// coverageAllowance scales one dimension's ask by target/share when the
// class is over target. A class the targets give no weight at all is
// throttled hardest — to 1 per grant, never 0, so its queue still
// drains and requeued work cannot strand.
func coverageAllowance(served map[string]int64, total int64, targets map[string]float64, key string, max int) int {
	if len(targets) == 0 || total <= 0 || max <= 1 {
		return max
	}
	target := targets[key]
	if target <= 0 {
		return 1
	}
	share := float64(served[key]) / float64(total)
	if share <= target {
		return max
	}
	allowed := int(float64(max) * target / share)
	if allowed < 1 {
		allowed = 1
	}
	if allowed > max {
		allowed = max
	}
	return allowed
}

// CoverageSkew scores one dimension: total-variation distance between
// the served share distribution and the targets, in [0, 1]. Keys are
// the union of both maps; iteration is sorted so the float sum is
// deterministic.
func CoverageSkew(served map[string]int64, total int64, targets map[string]float64) float64 {
	if total <= 0 || len(targets) == 0 {
		return 0
	}
	keys := make(map[string]bool, len(served)+len(targets))
	for k := range served {
		keys[k] = true
	}
	for k := range targets {
		keys[k] = true
	}
	sum := 0.0
	for _, k := range sortedKeys(keys) {
		d := float64(served[k])/float64(total) - targets[k]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / 2
}

// CoverageReport is the scheduler's self-assessment: served tallies per
// dimension plus the skew score against the installed targets (0 when
// no targets are installed).
type CoverageReport struct {
	ServedTotal int64            `json:"served_total"`
	Country     map[string]int64 `json:"country,omitempty"`
	ASN         map[string]int64 `json:"asn,omitempty"`
	Targets     CoverageTargets  `json:"targets,omitempty"`
	CountrySkew float64          `json:"country_skew"`
	ASNSkew     float64          `json:"asn_skew"`
}

// Coverage snapshots the scheduler's served tallies and skew scores.
func (c *Controller) Coverage() CoverageReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := CoverageReport{
		ServedTotal: c.servedTotal,
		Country:     maps.Clone(c.servedCountry),
		ASN:         maps.Clone(c.servedASN),
		Targets:     c.coverage,
	}
	rep.CountrySkew = CoverageSkew(rep.Country, rep.ServedTotal, c.coverage.Country)
	rep.ASNSkew = CoverageSkew(rep.ASN, rep.ServedTotal, c.coverage.ASN)
	return rep
}
