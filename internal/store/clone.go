package store

import (
	"fmt"
	"os"
	"path/filepath"

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
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("store: clone: %w", err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // no store dir yet: nothing flushed, nothing to ship
		}
		return fmt.Errorf("store: clone: %w", err)
	}
	for _, e := range entries {
		var id uint64
		if n, err := fmt.Sscanf(e.Name(), "seg-%016x.seg", &id); n != 1 || err != nil {
			continue
		}
		if err := framelog.CopyFileSync(filepath.Join(srcDir, e.Name()), filepath.Join(dstDir, e.Name())); err != nil {
			return fmt.Errorf("store: clone %s: %w", e.Name(), err)
		}
	}
	framelog.SyncDir(dstDir)
	return nil
}
