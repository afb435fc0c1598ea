package main

import (
	"testing"

	"github.com/afrinet/observatory/internal/federation"
)

// A test may ship a directory by hand.
func TestShipByHand(t *testing.T) {
	if err := federation.ShipState(t.TempDir(), t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
