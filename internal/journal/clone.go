package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/afrinet/observatory/internal/framelog"
)

// Clone copies a journal directory's files — snapshot.log and
// journal.log, and whatever an older binary left beside them for
// OpenLegacy — into dstDir, fsyncing each file and the destination
// directory; a stray .tmp is never read back and is not copied.
// This is the "snapshot ship" half of a federation shard failover: the
// coordinator clones a dead shard's journal dir to the peer's dir, then
// Recover replays it there. The source must be quiescent (the dead
// shard's writer is gone); a torn tail in the source is fine — Recover
// truncates it like any crash.
func Clone(srcDir, dstDir string) error {
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("journal: clone: %w", err)
	}
	ents, err := os.ReadDir(srcDir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: clone: %w", err)
	}
	for _, ent := range ents {
		if name := ent.Name(); ent.Type().IsRegular() && !strings.HasSuffix(name, ".tmp") {
			if err := framelog.CopyFileSync(filepath.Join(srcDir, name), filepath.Join(dstDir, name)); err != nil {
				return fmt.Errorf("journal: clone %s: %w", name, err)
			}
		}
	}
	framelog.SyncDir(dstDir)
	return nil
}
