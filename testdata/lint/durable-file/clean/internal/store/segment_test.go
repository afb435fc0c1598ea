package store

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTornRename(t *testing.T) {
	dir := t.TempDir()
	if err := os.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err == nil {
		t.Fatal("renamed a file that does not exist")
	}
}
