package journal

// Blob names the legacy snapshot from the current reader.
func Blob() string { return legacySnapName } // trip: internal/journal.legacySnapName
