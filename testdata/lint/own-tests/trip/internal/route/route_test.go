package route

import "testing"

func TestReachable(t *testing.T) {
	if !Reachable() || OnlyTested() != 1 {
		t.Fatal("reachable")
	}
}
