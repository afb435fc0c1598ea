package journal

import "path/filepath"

const legacySnapName = "snapshot.json"

// OpenLegacy opens a directory an older binary wrote.
func OpenLegacy(dir string) string { return filepath.Join(dir, legacySnapName) }
