package core

import (
	"time"
	t "time"
)

// Stamp reads the clock through an aliased import.
func Stamp() int64 { return t.Now().UnixNano() } // trip: time.Now

// now is a method value of the clock.
var now = time.Now // trip: time.Now

// Age reads the clock through time.Since.
func Age(then time.Time) time.Duration { return time.Since(then) } // trip: time.Since
