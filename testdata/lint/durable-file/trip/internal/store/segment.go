package store

import "os"

// Replace renames through a function value.
func Replace(from, to string) error {
	r := os.Rename // trip: os.Rename
	return r(from, to)
}

// Cut truncates a segment in place.
func Cut(f *os.File) error { return f.Truncate(0) } // trip: os.File.Truncate

// Create opens a segment by hand.
func Create(name string) (*os.File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644) // trip: os.OpenFile
}
