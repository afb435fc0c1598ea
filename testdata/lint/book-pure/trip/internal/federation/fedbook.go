package federation

import (
	"os"
	"sync"
	"time"
)

// fedBook keeps its own lock, reads the clock and writes its own file.
type fedBook struct {
	mu      sync.Mutex // trip: sync.Mutex
	epochs  map[string]int
	changed map[string]time.Time // trip: time.Time
}

// failover stamps the epoch bump with the wall clock and persists it.
func (b *fedBook) failover(id string, epoch int) {
	b.mu.Lock()         // trip: sync.Mutex.Lock
	defer b.mu.Unlock() // trip: sync.Mutex.Unlock
	b.epochs[id] = epoch
	b.changed[id] = time.Now()                    // trip: time.Now
	_ = os.WriteFile("epochs", []byte(id), 0o644) // trip: os.WriteFile
}
