package store

import "testing"

// A test holds the two encodings to each other.
func TestSpliced(t *testing.T) {
	f := &Folder{Matched: 1}
	rep := f.Report()
	got, _ := f.AppendReport(nil)
	if want, _ := rep.AppendJSON(nil); string(got) != string(want) {
		t.Fatal("differ")
	}
}
