package federation

import "github.com/afrinet/observatory/internal/store"

// The chaos drill is an external test (package federation_test): it
// drives internal/fleet's probes, and internal/fleet imports this
// package. These hand it the property suite's checks.
var (
	BuildOracle     = buildOracle
	KeysOnTwoShards = keysOnTwoShards
)

// Aggregate is Fold, reported: what a coordinator answers op=aggregate
// with, for the tests that compare it against an oracle's report.
func (c *Coordinator) Aggregate(q store.AggQuery) (store.AggReport, QueryMeta, error) {
	fold, meta, err := c.Fold(q)
	if err != nil {
		return store.AggReport{}, meta, err
	}
	return fold.Report(), meta, nil
}
