package journal

import (
	"fmt"
	"strings"

	"github.com/afrinet/observatory/internal/framelog"
)

// Clone copies a journal directory's files — snapshot.log and
// journal.log, and whatever an older binary left beside them, which Open
// then refuses in the copy as in the source — into dstDir, fsyncing each
// file and the destination directory; a stray .tmp is never read back and
// is not copied.
// This is the "snapshot ship" half of a federation shard failover: the
// coordinator clones a dead shard's journal dir to the peer's dir, then
// Recover replays it there. The source must be quiescent (the dead
// shard's writer is gone); a torn tail in the source is fine — Recover
// truncates it like any crash.
func Clone(srcDir, dstDir string) error {
	if err := framelog.CopyDir(srcDir, dstDir, func(name string) bool { return !strings.HasSuffix(name, ".tmp") }); err != nil {
		return fmt.Errorf("journal: clone: %w", err)
	}
	return nil
}
