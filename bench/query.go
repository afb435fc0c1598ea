package main

import (
	"fmt"
	"time"
)

// scanLimit is the page size of every scan.
const scanLimit = 200

// queryOut is what the query cycles of one run measured.
type queryOut struct {
	busy      time.Duration // wall time spent inside query cycles
	pages     samples       // every op=scan page
	first     samples       // first page of each walk
	last      samples       // last page of each walk
	walks     samples       // wall of each complete paged walk
	aggFull   samples
	aggWindow samples
	queries   int64 // completed requests of any kind
	attempted int64
	failed    int64
	notes     []string
}

// sort puts every sample in ascending order, ready to be read.
func (q *queryOut) sort() {
	q.pages, q.first, q.last = mergeSamples(q.pages), mergeSamples(q.first), mergeSamples(q.last)
	q.walks, q.aggFull, q.aggWindow = mergeSamples(q.walks), mergeSamples(q.aggFull), mergeSamples(q.aggWindow)
}

// queryClient is one closed-loop analyst: it cycles a full paged walk
// of one country, two aggregates over a country's latest tick and one
// unfiltered grouped aggregate, never overlapping its own requests. One client,
// because one query already fans out over the cores (the store scans
// surviving segments through internal/par): a second would time the
// scheduler.
type queryClient struct {
	tp       transport
	book     *oracle
	tr       *tracer
	out      queryOut
	maxTick  int64
	n        int64 // cycles done, offset by the seed
	checkAgg bool  // the next agg_full is compared with the oracle
	// strictSeq demands strictly increasing sequence numbers; a
	// federated walk merges shards in (seq, shard) order, where two
	// shards may hold the same number.
	strictSeq bool
}

// newQueryClient starts the cycle at a seeded country and goes round
// them from there. Countries hold equal shares of the fleet, so every
// cycle is the same work whatever the seed. The walk re-reads the same segments page after page (what a
// decoded-segment cache would hit), agg_full reads every segment (what
// would evict it) and agg_window is the index-pruned case. Every walk
// is checked against the generator's book; the first agg_full is
// compared field for field with a brute-force fold.
func newQueryClient(tp transport, book *oracle, maxTick int64, strictSeq bool, seed int64, tr *tracer) *queryClient {
	if seed < 0 {
		seed = -seed
	}
	return &queryClient{tp: tp, book: book, tr: tr, maxTick: maxTick, n: seed, checkAgg: true, strictSeq: strictSeq}
}

func (c *queryClient) fail(format string, args ...any) {
	c.out.failed++
	if len(c.out.notes) < 5 {
		c.out.notes = append(c.out.notes, fmt.Sprintf(format, args...))
	}
}

// cycle is one round of the mix.
func (c *queryClient) cycle() {
	t0 := time.Now()
	defer func() { c.out.busy += time.Since(t0) }()
	tp, tr := c.tp, c.tr
	country := fleetCountries[c.n%int64(len(fleetCountries))]
	c.walk(country)
	for i := int64(1); i <= 2; i++ {
		// The latest tick that holds results: the fleet's last round
		// delivered at the tick before the last.
		other := fleetCountries[(c.n+i)%int64(len(fleetCountries))]
		sp := tr.begin("client.agg_window", -1)
		_, d, err := tp.aggregate(aggQuery{groupBy: "asn", country: other, from: c.maxTick - 1, to: c.maxTick - 1})
		tr.end(sp)
		c.out.attempted++
		if err != nil {
			c.fail("agg_window: %v", err)
			continue
		}
		c.out.queries++
		c.out.aggWindow = append(c.out.aggWindow, d)
	}
	c.n++
	sp := tr.begin("client.agg_full", -1)
	rep, d, err := tp.aggregate(aggQuery{groupBy: "country_asn"})
	tr.end(sp)
	c.out.attempted++
	if err != nil {
		c.fail("agg_full: %v", err)
		return
	}
	c.out.queries++
	c.out.aggFull = append(c.out.aggFull, d)
	if c.checkAgg {
		c.checkAgg = false
		if err := diffAgg(rep, c.book.aggFull()); err != nil {
			c.fail("agg_full differs from the brute-force fold: %v", err)
		}
	}
}

// walk pages through every record of one country and checks what came
// back: exactly the generator's count, strictly increasing sequence
// numbers, no (experiment, task) twice.
func (c *queryClient) walk(country string) {
	tp, book, tr := c.tp, c.book, c.tr
	seen := make(map[string]bool, book.perCountry[country])
	var lastSeq uint64
	var lastPage time.Duration
	cursor := ""
	root := tr.begin("client.scan_walk", -1)
	defer tr.end(root)
	var wall time.Duration // the pages' handler time; the checks below are the harness's
	for page := 0; ; page++ {
		sp := tr.begin("client.scan_page", root)
		recs, next, d, err := tp.scan(country, scanLimit, cursor)
		tr.end(sp)
		c.out.attempted++
		if err != nil {
			c.fail("scan %s page %d: %v", country, page, err)
			return
		}
		c.out.queries++
		c.out.pages = append(c.out.pages, d)
		wall += d
		if page == 0 {
			c.out.first = append(c.out.first, d)
		}
		lastPage = d
		for _, r := range recs {
			key := r.Experiment + "/" + r.TaskID
			switch {
			case r.Country != country:
				c.fail("walk %s returned a %s record", country, r.Country)
				return
			case seen[key]:
				c.fail("walk %s returned %s twice", country, key)
				return
			case r.Seq < lastSeq || (c.strictSeq && r.Seq == lastSeq):
				c.fail("walk %s: seq %d after %d", country, r.Seq, lastSeq)
				return
			}
			seen[key] = true
			lastSeq = r.Seq
		}
		if next == "" {
			break
		}
		if next == cursor {
			c.fail("walk %s: cursor %q did not advance", country, cursor)
			return
		}
		cursor = next
	}
	c.out.walks = append(c.out.walks, wall)
	c.out.last = append(c.out.last, lastPage)
	if want := book.perCountry[country]; len(seen) != want {
		c.fail("walk %s returned %d records, generator delivered %d", country, len(seen), want)
	}
}
