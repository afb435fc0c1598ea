package route

import "testing"

func TestLive(t *testing.T) {
	if Live() != 1 {
		t.Fatal("live")
	}
}
