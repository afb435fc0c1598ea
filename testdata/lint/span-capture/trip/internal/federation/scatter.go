package federation

import (
	"sync"

	"github.com/afrinet/observatory/internal/obs"
)

// Scatter times every shard call under the request's span.
func Scatter(sp *obs.Span, shards []string) {
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp.Child(s).End() // trip: go *internal/obs.Span
		}()
	}
	wg.Wait()
	go sp.End() // trip: go *internal/obs.Span
}
