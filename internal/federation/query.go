package federation

import (
	"encoding/json"
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

// queryPhases times the coordinator's own share of one kind of query, once
// a query (obs_fed_query_seconds{op,phase}), beside obs_fed_shard_seconds'
// per-shard calls: scatter is the wait for the slowest shard and a scan's
// top-ups, merge what the coordinator then does with the replies.
type queryPhases struct{ scatter, merge *obs.Histogram }

func newQueryPhases(reg *obs.Registry, op string) queryPhases {
	return queryPhases{
		scatter: reg.Hist("obs_fed_query_seconds", "op", op, "phase", "scatter"),
		merge:   reg.Hist("obs_fed_query_seconds", "op", op, "phase", "merge"),
	}
}

// scatter fans op out to every shard in parallel (all of them when ask is
// nil), one scatterCall per shard under the per-shard deadline, hedged
// when hedge is set, and observes the wait in phase (nil: untimed).
// Replies come back positionally, in shard-id order — nothing shared is
// written.
func scatter[T any](c *Coordinator, phase *obs.Histogram, ask map[string]bool, hedge bool, op func(b core.Backend, id string) (T, error)) []shardReply[T] {
	t := obs.StartTimer()
	c.mu.Lock()
	targets := c.targetsLocked(c.book.order)
	c.mu.Unlock()
	replies := make([]shardReply[T], len(targets))
	var wg sync.WaitGroup
	for i, tg := range targets {
		id := tg.id
		replies[i].id = id
		if ask != nil && !ask[id] {
			replies[i].skipped = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i].v, replies[i].err = scatterCall(c, tg, hedge, func(b core.Backend) (T, error) {
				return op(b, id)
			})
		}()
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

// shardPage is one shard's page of a federated scan.
type shardPage struct {
	items []store.Item
	next  string
}

// mergeScans is the central merge: a k-way walk over the shards' pages,
// each already in sequence order, in (sequence, shard id) order — total
// and deterministic. It takes the first item of every (experiment, task)
// key until limit of them are taken (limit <= 0: all), and returns them
// with how many items of each page it consumed. A shard it runs dry on
// that has more and has handed over fewer than limit is topped up (topUp,
// told what the page still needs), so each supplies its first
// min(limit, available) records. Nothing is sorted; with a handful of
// shards a linear pick of the smallest head beats a heap.
func mergeScans(c *Coordinator, scans []shardReply[shardPage], limit int, topUp func(i, need int)) ([]store.Item, []int) {
	size := limit
	if limit <= 0 {
		size = 0
		for _, sc := range scans {
			size += len(sc.v.items)
		}
	}
	out := make([]store.Item, 0, size)
	heads := make([]int, len(scans))
	seen := make(map[store.DedupKey]struct{}, size)
	for limit <= 0 || len(out) < limit {
		best := -1
		var bestSeq uint64
		for i := range scans {
			sc := &scans[i]
			if heads[i] == len(sc.v.items) && sc.err == nil && sc.v.next != "" && len(sc.v.items) < limit {
				topUp(i, limit-len(out))
			}
			if heads[i] == len(sc.v.items) {
				continue
			}
			seq := sc.v.items[heads[i]].Seq
			if best >= 0 && (seq > bestSeq || seq == bestSeq && sc.id > scans[best].id) {
				continue
			}
			best, bestSeq = i, seq
		}
		if best < 0 {
			break
		}
		it := scans[best].v.items[heads[best]]
		heads[best]++
		if _, dup := seen[it.Key]; dup {
			c.ctr.Inc("fed_records_deduped")
			continue
		}
		seen[it.Key] = struct{}{}
		out = append(out, it)
	}
	return out, heads
}

// ScanItems is the federated scan, and what op=scan serves: every shard's
// matching records merged in (sequence, shard) order, limit at a time,
// behind a composite cursor that tracks one position per shard. Each
// record is its wire item (store.Item): a shard's encoded record crosses
// the coordinator as the bytes it arrived in. An in-process shard is asked
// for a share of the page, then for what the page needs whenever the merge
// runs dry on it; a remote one (HTTPShard), to which that is another round
// trip, for the whole page. Duplicate (experiment, task) keys are collapsed
// first-wins; routing a probe's results to one owning shard, which failover
// keeps, leaves no cross-shard duplicates in normal operation. Shards that
// cannot answer within one QueryDeadline of the page's start degrade it and
// keep their positions after what they handed over, for a later page to
// retry. Every shard failing is an error.
func (c *Coordinator) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	pos, err := parseFedCursor(cursor)
	if err != nil {
		return nil, "", QueryMeta{}, err
	}
	c.mu.Lock()
	asked := len(c.book.order)
	c.mu.Unlock()
	// A shard with an empty position on a non-empty cursor was
	// exhausted by an earlier page: don't re-fetch it from the start.
	var fetch map[string]bool
	if cursor != "" {
		fetch, asked = make(map[string]bool, len(pos)), len(pos)
		for id := range pos {
			fetch[id] = true
		}
	}
	share := limit // an unbounded page, or one shard's, is asked whole
	if limit > 0 && asked > 1 {
		share = min((limit+asked-1)/asked*5/4, limit) // an even share and a quarter
	}
	start := obs.StartTimer()
	scans := scatter(c, nil, fetch, true, func(b core.Backend, id string) (shardPage, error) {
		n := share
		if _, remote := b.(*HTTPShard); remote {
			n = limit
		}
		items, next, _, err := b.ScanItems(f, n, pos[id])
		return shardPage{items, next}, err
	})
	waited := start.Elapsed() // the scatter phase: the first round and every top-up
	defer func() { c.scanPhases.scatter.Observe(waited) }()
	meta, err := gather(c, scans)
	if err != nil {
		return nil, "", meta, err
	}
	defer func() { c.scanPhases.merge.Observe(start.Elapsed() - waited) }()

	// A failed top-up leaves its shard missing from the page, as a failed
	// first-round call does; one that finds the deadline spent fails unasked.
	topUp := func(i, need int) {
		sc := &scans[i]
		c.mu.Lock()
		st := c.shards[sc.id]
		c.mu.Unlock()
		rest, from, tw := min(limit-len(sc.v.items), need), sc.v.next, obs.StartTimer()
		more, err := shardPage{}, error(ErrShardTimeout)
		if left := c.cfg.QueryDeadline - start.Elapsed(); left > 0 {
			more, err = scatterCallWithin(c, st, true, left, func(b core.Backend) (shardPage, error) {
				items, next, _, err := b.ScanItems(f, rest, from)
				return shardPage{items, next}, err
			})
		}
		waited += tw.Elapsed()
		c.ctr.Inc("fed_scan_topups")
		if sc.err = err; err == nil {
			sc.v.items, sc.v.next = append(sc.v.items, more.items...), more.next
			return
		}
		if !meta.Degraded {
			c.ctr.Inc("fed_degraded_queries")
		}
		meta.Degraded, meta.ShardsMissing = true, append(meta.ShardsMissing, sc.id)
		sort.Strings(meta.ShardsMissing)
	}
	out, consumed := mergeScans(c, scans, limit, topUp)

	// Next composite cursor: a shard that failed or was consumed partially
	// resumes after its last consumed seq; one consumed fully follows its
	// own next-page cursor (gone when exhausted); one untouched keeps its
	// incoming position; skipped (already-exhausted) shards stay absent.
	nextPos := make(map[string]string, len(scans))
	for i, sc := range scans {
		c.ctr.Add("fed_scan_items_fetched", int64(len(sc.v.items)))
		if sc.skipped {
			continue
		}
		here := pos[sc.id]
		if here == "" {
			here = "0" // from the beginning, explicitly
		}
		switch n := consumed[i]; {
		case n == 0:
			if sc.err != nil || len(sc.v.items) > 0 || sc.v.next != "" {
				nextPos[sc.id] = here
			}
		case n == len(sc.v.items) && sc.err == nil:
			if sc.v.next != "" {
				nextPos[sc.id] = sc.v.next
			}
		default:
			nextPos[sc.id] = strconv.FormatUint(sc.v.items[n-1].Seq, 10)
		}
	}
	c.ctr.Add("fed_scan_items_served", int64(len(out)))
	return out, encodeFedCursor(nextPos), meta, nil
}

// ScanPage is ScanItems decoded: the same page as records, for Go callers
// (ExperimentResults, the benchmark, the oracles).
func (c *Coordinator) ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, QueryMeta, error) {
	items, next, meta, err := c.ScanItems(f, limit, cursor)
	if err != nil {
		return nil, "", meta, err
	}
	recs := make([]store.Record, len(items))
	for i, it := range items {
		if err := json.Unmarshal(it.JSON, &recs[i]); err != nil {
			return nil, "", meta, fmt.Errorf("federation: scan item %d: %w", i, err)
		}
	}
	return recs, next, meta, nil
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

// Fold is the federated aggregation: every shard folds its own records
// where they live (core.Backend.Fold) and the coordinator merges the
// partial folds, in shard-id order, into one; the query handler reports
// it once. What a store.Folder keeps — counts, verdict counts, raw RTT
// samples — composes exactly; the percentiles do not, so the report
// computes them last, over the merged samples: field for field what a
// single store holding every record would report (see store.Folder). No
// record crosses a shard boundary, and nothing is deduplicated here: an
// (experiment, task) key lives on exactly one shard (DESIGN.md
// "Scatter-gather queries"), so each shard's own first-wins dedup is
// already global. Unresponsive shards degrade the fold (their records
// are absent); all shards failing is an error. The merged fold remembers
// the group_by's last report (store.Folder.Remember): its report splices
// every group whose merged contents that report holds unchanged.
func (c *Coordinator) Fold(q store.AggQuery) (*store.Folder, QueryMeta, error) {
	merged, err := store.NewFolder(q.GroupBy)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	parts := scatter(c, c.aggPhases.scatter, nil, true, func(b core.Backend, _ string) (*store.Folder, error) {
		fold, _, err := b.Fold(q)
		return fold, err
	})
	meta, err := gather(c, parts)
	if err != nil {
		return nil, meta, err
	}
	t := obs.StartTimer()
	defer func() { c.aggPhases.merge.Observe(t.Elapsed()) }()
	var groups, samples int64
	folds := make([]*store.Folder, 0, len(parts))
	for _, p := range parts {
		if p.err != nil {
			continue
		}
		groups += int64(len(p.v.Groups))
		for i := range p.v.Groups {
			samples += int64(len(p.v.Groups[i].RTTs))
		}
		folds = append(folds, p.v)
	}
	if err := merged.Merge(folds...); err != nil {
		return nil, meta, fmt.Errorf("federation: %w", err)
	}
	merged.Remember(c.reports[merged.GroupBy], q.Filter)
	c.ctr.Add("fed_fold_groups_merged", groups)
	c.ctr.Add("fed_fold_samples_merged", samples)
	return merged, meta, nil
}
