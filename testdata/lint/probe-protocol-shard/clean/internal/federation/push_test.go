package federation

import (
	"testing"

	"github.com/afrinet/observatory/internal/core"
)

func TestPushMatchesSubmitWithID(t *testing.T) {
	var a, b core.Controller
	if Push(&a, "e1") != b.SubmitWithID("e1") {
		t.Fatal("push and submit disagree")
	}
}
