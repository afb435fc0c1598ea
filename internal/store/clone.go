package store

import (
	"fmt"

	"github.com/afrinet/observatory/internal/framelog"
)

// Clone copies every sealed segment file from srcDir into dstDir,
// fsyncing each copy and the destination directory — the results-store
// half of a federation shard failover's snapshot ship. Compaction temp
// files are skipped (Open would discard them anyway), and the memtable
// is not part of a clone by construction: anything that only lived in
// the dead shard's memtable is rebuilt by journal replay + the
// controller's store reconciliation, exactly like a crash restart.
func Clone(srcDir, dstDir string) error {
	if err := framelog.CopyDir(srcDir, dstDir, func(name string) bool {
		var id uint64
		n, err := fmt.Sscanf(name, "seg-%016x.seg", &id)
		return n == 1 && err == nil
	}); err != nil {
		return fmt.Errorf("store: clone: %w", err)
	}
	return nil
}
