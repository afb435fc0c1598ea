package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The one file here that older binaries wrote and this one does not is
// snapshot.json, the snapshot before it was framed: Open refuses a
// directory that holds one.
const legacySnapName = "snapshot.json"

// ErrNeedsUpgrade is the refusal of a directory an older binary wrote.
var ErrNeedsUpgrade = errors.New("directory written by an older binary, which this binary does not read")

// refuseLegacy is Open's check that dir holds no snapshot.json.
func refuseLegacy(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, legacySnapName)); err == nil {
		return fmt.Errorf("journal: %s holds %s: %w", dir, legacySnapName, ErrNeedsUpgrade)
	}
	return nil
}
