package federation

import (
	"sync"

	"github.com/afrinet/observatory/internal/obs"
)

// Scatter gives every shard call a span tree of its own and grafts
// nothing from the goroutines.
func Scatter(sp *obs.Span, shards []string) []*obs.Span {
	trees := make([]*obs.Span, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := &obs.Span{}
			own.Child(s).End()
			trees[i] = own
		}()
	}
	wg.Wait()
	sp.End()
	return trees
}
