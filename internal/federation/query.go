package federation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
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

// shardReply is one shard's contribution to a fan-out.
type shardReply[T any] struct {
	id      string
	v       T
	err     error
	skipped bool // not asked (a scan position exhausted on a previous page)
}

// queryPhases times the coordinator's own share of one kind of query
// (obs_fed_query_seconds{op,phase}), beside the per-shard call times of
// obs_fed_shard_seconds: scatter is the wait for the slowest shard, merge
// what the coordinator then does with the replies.
type queryPhases struct{ scatter, merge *obs.Histogram }

func newQueryPhases(reg *obs.Registry, op string) queryPhases {
	return queryPhases{
		scatter: reg.Hist("obs_fed_query_seconds", "op", op, "phase", "scatter"),
		merge:   reg.Hist("obs_fed_query_seconds", "op", op, "phase", "merge"),
	}
}

// scatter fans op out to every shard in parallel (all of them when ask is
// nil), under the per-shard deadline with hedged retries, one goroutine
// per shard, and observes the wait in phase. Replies come back
// positionally, in shard-id order — nothing shared is written.
func scatter[T any](c *Coordinator, phase *obs.Histogram, ask map[string]bool, op func(s Shard, id string) (T, error)) []shardReply[T] {
	t := obs.StartTimer()
	targets, ids := c.allTargets()
	replies := make([]shardReply[T], len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		replies[i].id = ids[i]
		if ask != nil && !ask[ids[i]] {
			replies[i].skipped = true
			continue
		}
		wg.Add(1)
		go func(i int, t shardTarget) {
			defer wg.Done()
			replies[i].v, replies[i].err = scatterCall(c, t.st, t.backend, true, func(s Shard) (T, error) {
				return op(s, ids[i])
			})
		}(i, targets[i])
	}
	wg.Wait()
	phase.Observe(t.Elapsed())
	return replies
}

// gather sorts a query fan-out's outcome: it marks the response degraded
// by every shard that failed to answer, and fails it when none did.
func gather[T any](c *Coordinator, replies []shardReply[T]) (QueryMeta, error) {
	var meta QueryMeta
	if len(replies) == 0 {
		return meta, ErrNoShards
	}
	c.ctr.Inc("fed_queries")
	var lastErr error
	for _, rp := range replies {
		if rp.err != nil {
			meta.Degraded = true
			meta.ShardsMissing = append(meta.ShardsMissing, rp.id)
			lastErr = rp.err
		}
	}
	if meta.Degraded {
		sort.Strings(meta.ShardsMissing)
		c.ctr.Inc("fed_degraded_queries")
		if len(meta.ShardsMissing) == len(replies) {
			return meta, fmt.Errorf("%w: none of %d shards answered, the last with: %v", ErrShardDown, len(replies), lastErr)
		}
	}
	return meta, nil
}

// shardPage is one shard's page of a federated scan: of records for
// Coordinator.ScanPage, of their wire items for Coordinator.ScanItems.
type shardPage[T any] struct {
	elems []T
	next  string
}

// mergeScans is the central merge: a k-way walk over the shards' pages,
// each already in sequence order, in (sequence, shard id) order — total
// and deterministic. It takes the first element of every (experiment,
// task) key until limit of them are taken (limit <= 0: all), and returns
// them with how many elements of each scan it consumed. key reads an
// element's sequence number and dedup key. Nothing is sorted; with a
// handful of shards a linear pick of the smallest head beats a heap.
func mergeScans[T any](c *Coordinator, scans []shardReply[shardPage[T]], limit int, key func(*T) (uint64, store.DedupKey)) ([]T, []int) {
	size := limit
	if limit <= 0 {
		size = 0
		for _, sc := range scans {
			size += len(sc.v.elems)
		}
	}
	out := make([]T, 0, size)
	heads := make([]int, len(scans))
	seen := make(map[store.DedupKey]struct{})
	for limit <= 0 || len(out) < limit {
		best := -1
		var bestSeq uint64
		for i := range scans {
			if heads[i] == len(scans[i].v.elems) {
				continue
			}
			seq, _ := key(&scans[i].v.elems[heads[i]])
			if best >= 0 && (seq > bestSeq || seq == bestSeq && scans[i].id > scans[best].id) {
				continue
			}
			best, bestSeq = i, seq
		}
		if best < 0 {
			break
		}
		e := &scans[best].v.elems[heads[best]]
		heads[best]++
		_, k := key(e)
		if _, dup := seen[k]; dup {
			c.ctr.Inc("fed_records_deduped")
			continue
		}
		seen[k] = struct{}{}
		out = append(out, *e)
	}
	return out, heads
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
	return scan(c, limit, cursor,
		func(s Shard, pos string) ([]store.Record, string, error) { return s.ScanPage(f, limit, pos) },
		func(r *store.Record) (uint64, store.DedupKey) {
			return r.Seq, store.DedupKey{Experiment: r.Experiment, TaskID: r.TaskID}
		})
}

// ScanItems is ScanPage over the records' wire items — the same pages
// behind the same cursors, which is what op=scan serves: a shard's
// encoded record crosses the coordinator as the bytes it arrived in.
func (c *Coordinator) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	return scan(c, limit, cursor,
		func(s Shard, pos string) ([]store.Item, string, error) { return s.ScanItems(f, limit, pos) },
		func(it *store.Item) (uint64, store.DedupKey) { return it.Seq, it.Key })
}

// ExperimentResults pages through one federated experiment's results: a
// federated scan filtered to it, behind the same composite cursor.
func (c *Coordinator) ExperimentResults(fedID string, limit int, cursor string) ([]probes.Result, string, QueryMeta, error) {
	if _, _, err := c.experimentTargets(fedID); err != nil { // unknown id: not an empty page
		return nil, "", QueryMeta{}, err
	}
	recs, next, meta, err := c.ScanPage(store.Filter{Experiment: fedID}, limit, cursor)
	if err != nil {
		return nil, "", meta, err
	}
	rs := make([]probes.Result, 0, len(recs))
	for _, rec := range recs {
		rs = append(rs, rec.Result)
	}
	return rs, next, meta, nil
}

// scan is the federated scan both of them are: page asks one shard for
// its page from its position in the composite cursor, key is mergeScans'.
func scan[T any](c *Coordinator, limit int, cursor string,
	page func(s Shard, pos string) ([]T, string, error),
	key func(*T) (uint64, store.DedupKey)) ([]T, string, QueryMeta, error) {
	pos, err := parseFedCursor(cursor)
	if err != nil {
		return nil, "", QueryMeta{}, err
	}
	// A shard with an empty position on a non-empty cursor was
	// exhausted by an earlier page: don't re-fetch it from the start.
	var fetch map[string]bool
	if cursor != "" {
		fetch = make(map[string]bool, len(pos))
		for id := range pos {
			fetch[id] = true
		}
	}
	scans := scatter(c, c.scanPhases.scatter, fetch, func(s Shard, id string) (shardPage[T], error) {
		elems, next, err := page(s, pos[id])
		return shardPage[T]{elems, next}, err
	})
	meta, err := gather(c, scans)
	if err != nil {
		return nil, "", meta, err
	}
	t := obs.StartTimer()
	defer func() { c.scanPhases.merge.Observe(t.Elapsed()) }()

	out, consumed := mergeScans(c, scans, limit, key)

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
			if len(sc.v.elems) > 0 || sc.v.next != "" {
				nextPos[sc.id] = here
			}
		case n == len(sc.v.elems):
			if sc.v.next != "" {
				nextPos[sc.id] = sc.v.next
			}
		default:
			seq, _ := key(&sc.v.elems[n-1])
			nextPos[sc.id] = strconv.FormatUint(seq, 10)
		}
	}
	return out, encodeFedCursor(nextPos), meta, nil
}

// Aggregate is the federated aggregation: every shard folds its own
// records where they live (Shard.Fold) and the coordinator merges the
// partial folds and reports once. What a store.Folder keeps — counts,
// verdict counts, raw RTT samples — composes exactly; the percentiles do
// not, so they are computed here, last, over the merged samples: field
// for field what a single store holding every record would report (see
// store.Folder). No record crosses a shard boundary, and nothing is
// deduplicated here: an (experiment, task) key lives on exactly one shard
// (DESIGN.md "Scatter-gather queries"), so each shard's own first-wins
// dedup is already global. Unresponsive shards degrade the report (their
// records are absent); all shards failing is an error.
func (c *Coordinator) Aggregate(q store.AggQuery) (rep store.AggReport, meta QueryMeta, err error) {
	meta, err = c.fold(q, func(f *store.Folder) { rep = f.Report() })
	return rep, meta, err
}

// Fold is Aggregate before the report: the shards' partial folds merged
// into one, which is what a coordinator answers op=fold with.
func (c *Coordinator) Fold(q store.AggQuery) (merged *store.Folder, meta QueryMeta, err error) {
	meta, err = c.fold(q, func(f *store.Folder) { merged = f })
	return merged, meta, err
}

// fold scatters q to every shard, merges the partial folds in shard-id
// order and hands the result to finish, inside the merge phase's timing.
func (c *Coordinator) fold(q store.AggQuery, finish func(*store.Folder)) (QueryMeta, error) {
	merged, err := store.NewFolder(q.GroupBy)
	if err != nil {
		return QueryMeta{}, err
	}
	parts := scatter(c, c.aggPhases.scatter, nil, func(s Shard, _ string) (*store.Folder, error) {
		return s.Fold(q)
	})
	meta, err := gather(c, parts)
	if err != nil {
		return meta, err
	}
	t := obs.StartTimer()
	defer func() { c.aggPhases.merge.Observe(t.Elapsed()) }()
	var groups, samples int64
	for _, p := range parts {
		if p.err != nil {
			continue
		}
		groups += int64(len(p.v.Groups))
		for i := range p.v.Groups {
			samples += int64(len(p.v.Groups[i].RTTs))
		}
		if err := merged.Merge(p.v); err != nil {
			return meta, fmt.Errorf("federation: shard %s: %w", p.id, err)
		}
	}
	c.ctr.Add("fed_fold_groups_merged", groups)
	c.ctr.Add("fed_fold_samples_merged", samples)
	finish(merged)
	return meta, nil
}
