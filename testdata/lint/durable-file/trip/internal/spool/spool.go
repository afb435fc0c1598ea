package spool

import "os"

// Reset empties the spool file by name.
func Reset(name string) error { return os.Truncate(name, 0) } // trip: os.Truncate
