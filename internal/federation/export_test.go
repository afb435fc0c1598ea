package federation

// The chaos drill is an external test (package federation_test): it
// drives internal/fleet's probes, and internal/fleet imports this
// package. These hand it the property suite's checks.
var (
	BuildOracle     = buildOracle
	KeysOnTwoShards = keysOnTwoShards
)
