package federation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/store"
)

// QueryMeta annotates a federated query response. Degraded reports that
// at least one shard could not answer within its deadline (after a
// hedged retry): the results are genuinely partial, the listed shards'
// records are absent, and the caller decides whether partial is good
// enough — the alternative, failing the whole query because one region
// is dark, is exactly what the paper's observatory cannot afford.
type QueryMeta = core.QueryMeta

// Composite cursors encode one per-shard sequence position per segment:
// "shardA=17;shardB=40". Shard IDs may be URL-ish (the -coordinator
// mode uses base URLs as IDs), so each segment splits on its LAST '='.

func parseFedCursor(cursor string) (map[string]string, error) {
	out := make(map[string]string)
	if cursor == "" {
		return out, nil
	}
	for _, seg := range strings.Split(cursor, ";") {
		i := strings.LastIndex(seg, "=")
		if i <= 0 || i == len(seg)-1 {
			return nil, fmt.Errorf("federation: bad cursor segment %q", seg)
		}
		out[seg[:i]] = seg[i+1:]
	}
	return out, nil
}

func encodeFedCursor(pos map[string]string) string {
	ids := make([]string, 0, len(pos))
	for id, p := range pos {
		if p != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	sort.Strings(ids)
	segs := make([]string, 0, len(ids))
	for _, id := range ids {
		segs = append(segs, id+"="+pos[id])
	}
	return strings.Join(segs, ";")
}

// shardScan is one shard's contribution to a fan-out.
type shardScan struct {
	id      string
	recs    []store.Record
	next    string
	err     error
	skipped bool // no position to fetch (exhausted on a previous page)
}

// scatterScans fans ScanPage out to every shard in parallel under the
// per-shard deadline with hedged retries, one goroutine per shard.
// Results come back positionally — nothing shared is written.
func (c *Coordinator) scatterScans(f store.Filter, limit int, pos map[string]string, fetch map[string]bool) []shardScan {
	targets, ids := c.allTargets()
	scans := make([]shardScan, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		scans[i].id = ids[i]
		if fetch != nil && !fetch[ids[i]] {
			scans[i].skipped = true
			continue
		}
		wg.Add(1)
		go func(i int, t shardTarget) {
			defer wg.Done()
			type page struct {
				recs []store.Record
				next string
			}
			p, err := scatterCall(c, t.st, t.backend, true, func(s Shard) (page, error) {
				recs, next, err := s.ScanPage(f, limit, pos[scans[i].id])
				return page{recs: recs, next: next}, err
			})
			scans[i].recs, scans[i].next, scans[i].err = p.recs, p.next, err
		}(i, targets[i])
	}
	wg.Wait()
	return scans
}

// gather sorts a fan-out's outcome: it marks the response degraded by
// every shard that failed to answer, and fails it when none did.
func (c *Coordinator) gather(scans []shardScan, nShards int) (QueryMeta, error) {
	var meta QueryMeta
	for _, sc := range scans {
		if sc.err != nil {
			meta.Degraded = true
			meta.ShardsMissing = append(meta.ShardsMissing, sc.id)
		}
	}
	if meta.Degraded {
		sort.Strings(meta.ShardsMissing)
		c.ctr.Inc("fed_degraded_queries")
		if len(meta.ShardsMissing) == nShards {
			return meta, fmt.Errorf("federation: all %d shards unavailable: %w", nShards, ErrShardDown)
		}
	}
	return meta, nil
}

// mergeScans is the central merge: a k-way walk over the shards' pages,
// each already in sequence order, in (sequence, shard id) order — total
// and deterministic. It hands take the first record of every
// (experiment, task) key, in place, until limit of them are taken
// (limit <= 0: all), and returns how many records of each scan it
// consumed. Nothing is copied or sorted; with a handful of shards a
// linear pick of the smallest head beats a heap.
func (c *Coordinator) mergeScans(scans []shardScan, limit int, take func(*store.Record)) []int {
	heads := make([]int, len(scans))
	seen := make(map[store.DedupKey]struct{})
	for taken := 0; limit <= 0 || taken < limit; {
		best := -1
		for i := range scans {
			if heads[i] == len(scans[i].recs) {
				continue
			}
			if best >= 0 {
				seq, bestSeq := scans[i].recs[heads[i]].Seq, scans[best].recs[heads[best]].Seq
				if seq > bestSeq || seq == bestSeq && scans[i].id > scans[best].id {
					continue
				}
			}
			best = i
		}
		if best < 0 {
			break
		}
		r := &scans[best].recs[heads[best]]
		heads[best]++
		k := store.DedupKey{Experiment: r.Experiment, TaskID: r.TaskID}
		if _, dup := seen[k]; dup {
			c.ctr.Inc("fed_records_deduped")
			continue
		}
		seen[k] = struct{}{}
		take(r)
		taken++
	}
	return heads
}

// ScanPage is the federated record scan: every shard's matching records
// merged in (sequence, shard) order, limit at a time, behind a
// composite cursor that tracks one position per shard. Duplicate
// (experiment, task) keys are collapsed first-wins within the page
// fan-out; by routing every probe's results to one owning shard — an
// ownership that failover preserves, since the replacement serves the
// same shard ID — cross-shard duplicates do not arise in normal
// operation. Shards that cannot answer degrade the response instead of
// failing it; their cursor positions are carried forward untouched so a
// later page retries them. Every shard failing is an error.
func (c *Coordinator) ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, QueryMeta, error) {
	pos, err := parseFedCursor(cursor)
	if err != nil {
		return nil, "", QueryMeta{}, err
	}
	c.mu.Lock()
	nShards := len(c.order)
	c.mu.Unlock()
	if nShards == 0 {
		return nil, "", QueryMeta{}, ErrNoShards
	}
	c.ctr.Inc("fed_queries")

	// A shard with an empty position on a non-empty cursor was
	// exhausted by an earlier page: don't re-fetch it from the start.
	var fetch map[string]bool
	if cursor != "" {
		fetch = make(map[string]bool, len(pos))
		for id := range pos {
			fetch[id] = true
		}
	}
	scans := c.scatterScans(f, limit, pos, fetch)
	meta, err := c.gather(scans, nShards)
	if err != nil {
		return nil, "", meta, err
	}

	size := limit
	if limit <= 0 {
		for _, sc := range scans {
			size += len(sc.recs)
		}
	}
	out := make([]store.Record, 0, size)
	consumed := c.mergeScans(scans, limit, func(r *store.Record) { out = append(out, *r) })

	// Next composite cursor: a shard that failed keeps its position, so a
	// later page can pick it back up once it answers again; a shard we
	// consumed fully follows its own next-page cursor (gone when
	// exhausted); a partially-consumed shard resumes after its last
	// consumed seq; a fetched-but-untouched shard keeps its incoming
	// position. Skipped (already-exhausted) shards stay absent.
	nextPos := make(map[string]string, len(scans))
	for i, sc := range scans {
		if sc.skipped {
			continue
		}
		here := pos[sc.id]
		if here == "" {
			here = "0" // from the beginning, explicitly
		}
		switch n := consumed[i]; {
		case sc.err != nil:
			nextPos[sc.id] = here
		case n == 0:
			if len(sc.recs) > 0 || sc.next != "" {
				nextPos[sc.id] = here
			}
		case n == len(sc.recs):
			if sc.next != "" {
				nextPos[sc.id] = sc.next
			}
		default:
			nextPos[sc.id] = strconv.FormatUint(sc.recs[n-1].Seq, 10)
		}
	}
	return out, encodeFedCursor(nextPos), meta, nil
}

// Aggregate is the federated aggregation: full matching scans from
// every shard, merged and deduplicated centrally and folded, record by
// record as the merge yields them, by the same store.Folder a single
// store uses — percentiles do not compose across shards, so the fold
// runs over the merged stream, which is byte-for-byte what a single
// store holding every record would compute. Unresponsive shards degrade
// the report (their records are absent); all shards failing is an error.
func (c *Coordinator) Aggregate(q store.AggQuery) (store.AggReport, QueryMeta, error) {
	fold, err := store.NewFolder(q.GroupBy)
	if err != nil {
		return store.AggReport{}, QueryMeta{}, err
	}
	c.mu.Lock()
	nShards := len(c.order)
	c.mu.Unlock()
	if nShards == 0 {
		return store.AggReport{}, QueryMeta{}, ErrNoShards
	}
	c.ctr.Inc("fed_queries")

	scans := c.scatterScans(q.Filter, 0, nil, nil)
	meta, err := c.gather(scans, nShards)
	if err != nil {
		return store.AggReport{}, meta, err
	}
	c.mergeScans(scans, 0, fold.Add)
	return fold.Report(), meta, nil
}
