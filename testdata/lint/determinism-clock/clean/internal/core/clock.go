package core

import "time"

type clock struct{ tick int64 }

// Now is the controller's logical time.
func (c clock) Now() int64 { return c.tick }

// Stamp reads a logical clock whose name shadows the time package.
func Stamp() int64 {
	time := clock{tick: 7}
	return time.Now()
}

// Deadline arms a timer on a duration, which reads no wall clock.
func Deadline(d time.Duration) *time.Timer { return time.NewTimer(d) }
