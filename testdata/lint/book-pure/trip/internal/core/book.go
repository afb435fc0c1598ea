package core

import (
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/afrinet/observatory/internal/obs"
)

// book keeps its own lock, metrics and clock.
type book struct {
	mu    sync.Mutex    // trip: sync.Mutex
	stats *obs.Family   // trip: internal/obs.Family
	ttl   time.Duration // trip: time.Duration
}

// Tick counts a tick under the book's own lock and reads the environment.
func (b *book) Tick() int {
	b.mu.Lock()                       // trip: sync.Mutex.Lock
	defer b.mu.Unlock()               // trip: sync.Mutex.Unlock
	b.stats.Inc("ticks")              // trip: internal/obs.Family.Inc
	if os.Getenv("OBS_DEBUG") != "" { // trip: os.Getenv
		return http.StatusTeapot // trip: net/http.StatusTeapot
	}
	return int(b.ttl)
}
