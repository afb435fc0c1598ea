package route

import "testing"

func TestOwn(t *testing.T) {
	if OwnTested() != 2 {
		t.Fatal("OwnTested is 2")
	}
}
