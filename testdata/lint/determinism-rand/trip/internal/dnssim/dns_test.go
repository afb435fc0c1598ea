package dnssim

import (
	"math/rand"
	"testing"
)

func TestSeed(t *testing.T) {
	seed := rand.NewSource(1) // trip: math/rand.NewSource
	src := rand.New(seed)     // trip: math/rand.New
	if src.Intn(1) != 0 {     // trip: math/rand.Rand.Intn
		t.Fatal("Intn(1) is 0")
	}
}
