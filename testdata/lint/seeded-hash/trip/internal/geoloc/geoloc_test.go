package geoloc

import "testing"

// final is the finalizer's last multiplier, spelled in decimal.
const final = 10723151780598845931 // trip: 10723151780598845931

func TestDraw(t *testing.T) {
	if x := Draw(1, 2) * final; x == 0 { // trip: 10723151780598845931
		t.Fatal("Draw(1, 2) folds to 0")
	}
}
