package fleet

import (
	"testing"
	"time"
)

func TestDeadline(t *testing.T) {
	if time.Until(time.Time{}) > 0 { // trip: time.Until
		t.Fatal("the zero time is in the past")
	}
}
