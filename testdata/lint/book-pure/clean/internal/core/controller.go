package core

import (
	"sync"

	"github.com/afrinet/observatory/internal/obs"
)

// Controller is the lock, the book and the I/O around it.
type Controller struct {
	mu sync.Mutex
	book
}

// NewController hands the book its counters.
func NewController() *Controller {
	c := &Controller{book: book{probes: map[string]int64{}, stats: &obs.Family{}, wake: func(string) {}}}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep()
	return c
}
