package store

import (
	"container/list"
	"sync"

	"github.com/afrinet/observatory/internal/metrics"
)

// cacheBudget is the most decoded records a store keeps for its sealed
// disk segments: 128 default-sized (1024-record) segments. A Record is
// 384 B plus its strings (some 150 B for a ping result), so a full cache
// costs about 70 MB. A constant, not an option: the store has one kind
// of caller (obsd and its shards) and nothing to tune it against.
const cacheBudget = 1 << 17

// segCache keeps the decoded records of sealed disk segments, keyed by
// segment id, evicting the least recently used segment first. A sealed
// segment's file never changes after its rename, so one decode — which
// ran every ParseSegment check — stands until the entry is evicted or
// the store reopened. Entries are shared read-only with every query.
//
// The segment_cache_* counters in the store's CounterSet are its only
// bookkeeping: the budget is enforced against the segment_cache_records
// figure /api/v1/stats shows.
type segCache struct {
	mu     sync.Mutex
	budget int
	byID   map[uint64]*list.Element
	lru    *list.List // of *cacheEntry, most recently used at the front
	ctr    *metrics.CounterSet
}

type cacheEntry struct {
	id   uint64
	recs []Record
}

// get returns a segment's cached records and marks them recently used.
func (c *segCache) get(id uint64) ([]Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		c.ctr.Inc("segment_cache_misses")
		return nil, false
	}
	c.ctr.Inc("segment_cache_hits")
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).recs, true
}

// put caches a segment's records, evicting from the cold end until they
// fit. A segment larger than the whole budget is not cached, and one
// already present (two readers missed on it at once) is left alone.
func (c *segCache) put(id uint64, recs []Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(len(recs))
	if _, ok := c.byID[id]; ok || n == 0 || n > int64(c.budget) {
		return
	}
	for c.ctr.Get("segment_cache_records")+n > int64(c.budget) {
		c.removeLocked(c.lru.Back())
		c.ctr.Inc("segment_cache_evictions")
	}
	c.byID[id] = c.lru.PushFront(&cacheEntry{id: id, recs: recs})
	c.ctr.Add("segment_cache_records", n)
}

// drop forgets a segment that compaction or retention deleted.
func (c *segCache) drop(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		c.removeLocked(el)
	}
}

func (c *segCache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.byID, e.id)
	c.ctr.Add("segment_cache_records", -int64(len(e.recs)))
}
