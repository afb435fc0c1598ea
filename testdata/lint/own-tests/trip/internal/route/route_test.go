package route

import "testing"

func TestReachable(t *testing.T) {
	if !Reachable() || OnlyTested() != 1 || (Tariff{Rate: 1}).String() != "tariff" {
		t.Fatal("reachable")
	}
}
