package journal

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/afrinet/observatory/internal/framelog"
)

// Clone copies a journal directory's durable state — snapshot.log, a
// legacy snapshot.json and journal.log, whichever exist — into dstDir,
// fsyncing each file and the destination directory. A directory holding
// both snapshots is copied as it is: Open reads the framed one there too.
// This is the "snapshot ship" half of a federation shard failover: the
// coordinator clones a dead shard's journal dir to the peer's dir, then
// Recover replays it there. The source must be quiescent (the dead
// shard's writer is gone); a torn tail in the source is fine — Recover
// truncates it like any crash.
func Clone(srcDir, dstDir string) error {
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("journal: clone: %w", err)
	}
	for _, name := range []string{snapName, legacySnapName, logName} {
		if err := framelog.CopyFileSync(filepath.Join(srcDir, name), filepath.Join(dstDir, name)); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("journal: clone %s: %w", name, err)
		}
	}
	framelog.SyncDir(dstDir)
	return nil
}
