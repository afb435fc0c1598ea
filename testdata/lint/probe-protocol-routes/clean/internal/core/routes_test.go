package core

import "testing"

func TestNoPerProbeRoute(t *testing.T) {
	for _, r := range Routes {
		if r == "/api/v1/probes/{id}/tasks" {
			t.Fatal("a per-probe route came back")
		}
	}
}
