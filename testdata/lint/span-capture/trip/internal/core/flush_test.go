package core

import (
	"testing"

	"github.com/afrinet/observatory/internal/obs"
)

func TestFlush(t *testing.T) {
	root := &obs.Span{}
	done := make(chan bool)
	go func(s *obs.Span) { s.End(); done <- true }(root) // trip: go *internal/obs.Span
	<-done
}
