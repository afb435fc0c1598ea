package federation

import (
	"testing"

	"github.com/afrinet/observatory/internal/journal"
)

// A test may write a journal by hand.
func TestHandWrittenJournal(t *testing.T) {
	log, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append("shard_add", nil); err != nil {
		t.Fatal(err)
	}
}
