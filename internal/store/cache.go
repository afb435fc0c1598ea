package store

import (
	"container/list"
	"sync"
	"unsafe"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/obs"
)

// cacheBudget is the most decoded records a store keeps for its sealed
// disk segments: 128 default-sized (1024-record) segments. Measured on a
// cold load of ping results (heap after, less heap before, per record): a
// cached record costs 908 B — 600 B decoded (the 384 B Record and its
// strings), 300 B for the file image beside it (a 265 B frame and the
// 24 B slice that points into it) and 8 B for its key hash in the
// segment's summary (848 → 856 B on the test corpus's 242 B frames) — so
// a full cache is about 119 MB, of which segment_cache_bytes reports the
// frames. The sealed summary and the kept reports are charged a record
// per 908 B. The budget counts records, not bytes, and is a constant, not
// an option: the store has one kind of caller (obsd and its shards) and
// nothing to tune it against.
const cacheBudget = 1 << 17

// segCache keeps the decoded records of sealed disk segments and the
// frame payloads they came from, keyed by segment id, evicting the least
// recently used segment first. A sealed segment's file never changes
// after its rename, so one decode — which ran every parseSegment check —
// stands until the entry is evicted or the store reopened. Entries are
// shared read-only with every query, and one a query still holds after
// its eviction stays whole: the garbage collector owns it, not the cache.
//
// The budget is enforced against records, this cache's own count, and
// what the store's sealed summary and kept reports are charged; the
// store's obs_store_gauge reports them as segment_cache_records and
// segment_fold_records, beside segment_cache_bytes, the file image the
// records keep alive (each summed over the stores of a shared registry).
// Hits, misses and evictions are counted in obs_store_events_total.
type segCache struct {
	mu      sync.Mutex
	budget  int
	records int64 // decoded records held now
	charged int64 // what the summary and the kept reports are charged, in records
	byID    map[uint64]*list.Element
	lru     *list.List // of *cacheEntry, most recently used at the front
	ctr     *obs.Family
	gauge   *obs.Family
}

type cacheEntry struct {
	id uint64
	decoded
}

// cachedRecordBytes is what a cached record costs (cacheBudget): a memo
// is charged a record for each this many bytes it keeps, or part.
const cachedRecordBytes = 908

// get returns a segment's cached records and marks them recently used.
func (c *segCache) get(id uint64) (decoded, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		c.ctr.Inc("segment_cache_misses")
		return decoded{}, false
	}
	c.ctr.Inc("segment_cache_hits")
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).decoded, true
}

// peek returns a segment's cached records, if the cache holds them,
// without counting a hit or a miss or marking them used.
func (c *segCache) peek(id uint64) (decoded, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		return el.Value.(*cacheEntry).decoded, true
	}
	return decoded{}, false
}

// put caches a segment's records, evicting from the cold end until they
// fit, and returns them. A segment larger than the whole budget comes
// back uncached; one already present (two readers missed on it at once)
// comes back as cached first.
func (c *segCache) put(id uint64, d decoded) decoded {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(len(d.recs))
	if el, ok := c.byID[id]; ok {
		return el.Value.(*cacheEntry).decoded
	}
	if n == 0 || n > int64(c.budget) {
		return d
	}
	c.evictLocked(n)
	c.byID[id] = c.lru.PushFront(&cacheEntry{id: id, decoded: d})
	c.records += n
	c.gauge.Add("segment_cache_records", n)
	c.gauge.Add("segment_cache_bytes", framelog.Span(d.raws))
	return d
}

// evictLocked evicts from the cold end until n more fit.
func (c *segCache) evictLocked(n int64) {
	for c.records+c.charged+n > int64(c.budget) && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
		c.ctr.Inc("segment_cache_evictions")
	}
}

// chargeSummary charges the store's sealed summary or a report memo
// (ReportMemo) n more records, or gives what they dropped back (n < 0).
func (c *segCache) chargeSummary(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.charged += n
	c.gauge.Add("segment_fold_records", n)
	c.evictLocked(0)
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
	c.records -= int64(len(e.recs))
	c.gauge.Add("segment_cache_records", -int64(len(e.recs)))
	c.gauge.Add("segment_cache_bytes", -framelog.Span(e.raws))
}

// foldBytes estimates what a fold's groups keep: themselves, their
// samples and their verdicts.
func foldBytes(groups []FoldGroup) int64 {
	bytes := int64(cap(groups)) * int64(unsafe.Sizeof(FoldGroup{}))
	for _, g := range groups {
		bytes += 8 * int64(cap(g.RTTs))
		if g.Verdicts != nil {
			bytes += 256 // a map of a handful of verdicts
		}
	}
	return bytes
}
