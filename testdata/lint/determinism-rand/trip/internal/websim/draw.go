package websim

import (
	r "math/rand"
	"math/rand/v2"
)

// Draw rolls a die through an aliased math/rand.
func Draw() int { return r.Intn(6) } // trip: math/rand.Intn

// pick is a method value of math/rand/v2.
var pick = rand.IntN // trip: math/rand/v2.IntN
