package framelog

import "os"

// Replace is the one atomic replace.
func Replace(from, to string) error { return os.Rename(from, to) }
