package store

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/topology"
)

// Filter selects records. Zero values mean "any"; tick bounds are
// inclusive and a bound of 0 (or less) is open.
type Filter struct {
	Experiment string
	Country    string
	ASN        topology.ASN
	Kind       string
	// Verdict selects websteps results by blocking verdict
	// (dns_blocked, throttled, ...).
	Verdict string
	// ResolverChain selects dnsload results by chain shape
	// (e.g. "stub>cache>cloud>authority").
	ResolverChain string
	// ECS tri-states on the dnsload client-subnet flag: "" any,
	// "true"/"false" exact.
	ECS      string
	FromTick int64
	ToTick   int64
}

func (f *Filter) match(r *Record) bool {
	if f.Experiment != "" && r.Experiment != f.Experiment {
		return false
	}
	if f.Country != "" && r.Country != f.Country {
		return false
	}
	if f.ASN != 0 && r.ASN != f.ASN {
		return false
	}
	if f.Kind != "" && string(r.Result.Kind) != f.Kind {
		return false
	}
	if f.Verdict != "" && r.Result.Verdict != f.Verdict {
		return false
	}
	if f.ResolverChain != "" && r.Result.ResolverChain != f.ResolverChain {
		return false
	}
	if f.ECS != "" && strconv.FormatBool(r.Result.ECS) != f.ECS {
		return false
	}
	if f.FromTick > 0 && r.Tick < f.FromTick {
		return false
	}
	if f.ToTick > 0 && r.Tick > f.ToTick {
		return false
	}
	return true
}

// FilterParam is one Filter field's wire form: the query-parameter name
// both HTTP tiers, the client and API.md use for it. filterParams is the
// only place a filter parameter is declared — ParseFilter, Filter.Values
// and the generated API reference all walk it.
type FilterParam struct {
	Name string
	Doc  string
	get  func(*Filter) string // "" when the field is unset
	set  func(*Filter, string) error
}

func stringParam(name, doc string, field func(*Filter) *string) FilterParam {
	return FilterParam{name, doc,
		func(f *Filter) string { return *field(f) },
		func(f *Filter, s string) error { *field(f) = s; return nil }}
}

func tickParam(name, doc string, field func(*Filter) *int64) FilterParam {
	return FilterParam{name, doc,
		func(f *Filter) string {
			if *field(f) <= 0 {
				return ""
			}
			return strconv.FormatInt(*field(f), 10)
		},
		func(f *Filter, s string) error {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return fmt.Errorf("%s must be an integer, got %q", name, s)
			}
			*field(f) = n
			return nil
		}}
}

var filterParams = []FilterParam{
	stringParam("experiment", "experiment id", func(f *Filter) *string { return &f.Experiment }),
	stringParam("country", "submitting probe's country code", func(f *Filter) *string { return &f.Country }),
	{"asn", "submitting probe's AS number",
		func(f *Filter) string {
			if f.ASN == 0 {
				return ""
			}
			return strconv.FormatUint(uint64(f.ASN), 10)
		},
		func(f *Filter, s string) error {
			n, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return fmt.Errorf("asn must be an integer, got %q", s)
			}
			f.ASN = topology.ASN(n)
			return nil
		}},
	stringParam("kind", "task kind (ping, dns, websteps, dnsload, ...)", func(f *Filter) *string { return &f.Kind }),
	stringParam("verdict", "websteps blocking verdict (dns_blocked, throttled, ...)", func(f *Filter) *string { return &f.Verdict }),
	stringParam("resolver_chain", "dnsload resolver chain shape, e.g. stub>cache>cloud>authority", func(f *Filter) *string { return &f.ResolverChain }),
	{"ecs", "dnsload client-subnet flag: true or false",
		func(f *Filter) string { return f.ECS },
		func(f *Filter, s string) error {
			if s != "true" && s != "false" {
				return fmt.Errorf("ecs must be true or false, got %q", s)
			}
			f.ECS = s
			return nil
		}},
	tickParam("from_tick", "earliest record tick, inclusive", func(f *Filter) *int64 { return &f.FromTick }),
	tickParam("to_tick", "latest record tick, inclusive", func(f *Filter) *int64 { return &f.ToTick }),
}

// FilterParams lists the filter's query parameters in documentation
// order.
func FilterParams() []FilterParam { return filterParams }

// ParseFilter reads a Filter from query parameters; absent or empty
// parameters leave their field open. The error names the offending
// parameter.
func ParseFilter(q url.Values) (Filter, error) {
	var f Filter
	for _, p := range filterParams {
		if s := q.Get(p.Name); s != "" {
			if err := p.set(&f, s); err != nil {
				return Filter{}, err
			}
		}
	}
	return f, nil
}

// Values renders the filter as query parameters, the inverse of
// ParseFilter; open fields are omitted.
func (f Filter) Values() url.Values {
	q := url.Values{}
	for _, p := range filterParams {
		if s := p.get(&f); s != "" {
			q.Set(p.Name, s)
		}
	}
	return q
}

// visit streams every record matching the filter to fn, in sequence
// order, at most once per (experiment, task) — the lowest-seq copy the
// filter matches wins, collapsing the duplicates a crash window can leave. fn sees each record
// in place (a cached segment's, a memory segment's or the memtable's)
// with the payload that encodes it, nil where it has none yet
// (decoded.raws): it must not modify either or retain the pointer, and
// returns false to stop the stream early. It runs under the store's read
// lock. Before the first record, *bound (when non-nil) is set to how many
// records the stream can yield at most: the frames of the segments the
// index cannot rule out plus the memtable.
//
// Sealed segments are pruned on their sparse index. With eager set — the
// caller will read to the end — the survivors not yet in the segment
// cache are decoded in parallel before the stream starts; each lands in
// its own slot and segment seq ranges are disjoint, so the stream is
// identical no matter how many workers ran (the internal/par contract).
// Otherwise each survivor is loaded when the stream reaches it, and an
// early stop leaves the rest undecoded.
//
// An eager read dedups by exception: it merges the key summaries of the
// runs it will stream, and only a record whose key hash occurs more than
// once among them goes through the exact dedup set — a key whose hash
// occurs once cannot repeat, whatever the filter. A lazy read cannot know
// the runs it will not decode, so every match goes through the set. On a
// repeat-free store (summary.go) no read dedups; a fold into into whose
// filter covers every sealed run (SegmentMeta.covers) merges the one
// sealed fold in their place, and a read with a cursor (after > 0) skips
// what lies at or before it.
func (s *Store) visit(f Filter, eager bool, after uint64, bound *int, into *Folder, fn func(r *Record, raw []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var scan []*segment
	most := len(s.mem)
	for _, sg := range s.segs {
		if sg.meta.mayMatch(f) {
			scan = append(scan, sg)
			most += sg.meta.Frames
		}
	}
	if bound != nil {
		*bound = most
	}
	loaded := make([]decoded, len(scan))
	load := func(i int) (err error) {
		loaded[i], err = s.load(scan[i])
		return err
	}
	if eager {
		if err := par.ForEachErr(0, len(scan), load); err != nil {
			return err
		}
	}
	sum, free := s.summaryLocked(scan, loaded, eager)
	var repeats map[uint64]bool // an eager read's repeated key hashes
	if eager && !free {
		runs := make([][]uint64, 0, len(scan)+1)
		for _, d := range loaded {
			runs = append(runs, d.keys)
		}
		repeats = repeated(append(runs, s.memKeys))
	}
	seen := make(map[DedupKey]struct{})
	seek := free && after > 0
	stream := func(d decoded) bool {
		i := 0
		if seek {
			i = sort.Search(len(d.recs), func(i int) bool { return d.recs[i].Seq > after })
		}
		for ; i < len(d.recs); i++ {
			r := &d.recs[i]
			if !f.match(r) {
				continue
			}
			if !eager && !free || repeats != nil && repeats[keyHash(r.Experiment, r.TaskID)] {
				k := DedupKey{r.Experiment, r.TaskID}
				if _, dup := seen[k]; dup {
					s.ctr.Inc("records_deduped_read")
					continue
				}
				seen[k] = struct{}{}
			}
			if !fn(r, d.raw(i)) {
				return false
			}
		}
		return true
	}
	first := 0
	if into != nil && free && len(s.segs) > 0 && !slices.ContainsFunc(s.segs, func(sg *segment) bool { return !sg.meta.covers(f) }) {
		sealed := sum.fold(s, into.GroupBy, loaded)
		// Room for the memtable's new groups: at most as many again.
		into.Groups = make([]FoldGroup, 0, len(sealed.Groups)+min(len(s.mem), len(sealed.Groups)))
		_ = into.Merge(sealed) // grouped alike: cannot fail
		first = len(scan)
	}
	if seek {
		for first < len(scan) && scan[first].meta.MaxSeq <= after {
			first++
		}
		s.ctr.Inc("pages_seeked")
	}
	for i := first; i < len(scan); i++ {
		if !eager {
			if err := load(i); err != nil {
				return err
			}
		}
		if !stream(loaded[i]) {
			return nil
		}
	}
	stream(decoded{recs: s.mem, raws: s.memRaws})
	return nil
}

// repeated returns the hashes that occur more than once across sorted
// runs (a run may repeat one itself), nil when none does: equal hashes
// end up side by side in their union.
func repeated(runs [][]uint64) map[uint64]bool {
	var rep map[uint64]bool
	run := union(runs)
	for i := 1; i < len(run); i++ {
		if run[i] == run[i-1] {
			if rep == nil {
				rep = make(map[uint64]bool)
			}
			rep[run[i]] = true
		}
	}
	return rep
}

// union merges sorted runs into one sorted run, repeats kept, in memory
// of its own: pairwise, level by level, through two buffers the size of
// them all.
func union(runs [][]uint64) []uint64 {
	if len(runs) < 2 {
		return slices.Concat(runs...)
	}
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	var bufs [2][]uint64
	for level := 0; len(runs) > 1; level++ {
		if bufs[level%2] == nil {
			bufs[level%2] = make([]uint64, 0, n)
		}
		out, next := bufs[level%2][:0], runs[:0]
		for i := 0; i < len(runs); i += 2 {
			start := len(out)
			if i+1 < len(runs) {
				out = mergeRun(out, runs[i], runs[i+1])
			} else {
				out = append(out, runs[i]...)
			}
			next = append(next, out[start:])
		}
		runs = next
	}
	return runs[0]
}

// mergeRun appends the merge of sorted a and b to out, a's first where
// they tie. The loop takes the smaller head without a branch (the compiler
// emits a conditional move for hashes): which of two random hashes is
// smaller is a coin toss that a branch predictor loses half the time.
func mergeRun[T cmp.Ordered](out, a, b []T) []T {
	k := len(out)
	out = append(out, make([]T, len(a)+len(b))...)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, v, fromA := a[i], b[j], 0
		if x <= v {
			v, fromA = x, 1
		}
		out[k] = v
		i, j, k = i+fromA, j+1-fromA, k+1
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
	return out
}

// ScanPage returns matching records in stable sequence order, limit at a
// time. cursor is the opaque position returned by the previous page (""
// starts from the beginning); the returned cursor is "" once the scan is
// exhausted. Cursors stay valid across flushes, compactions, and
// restarts because they are sequence numbers, which all three preserve.
// limit <= 0 returns everything. A page stops at the first match past
// its last. Where a key may repeat it reads the store from its start, as
// first-wins dedup needs the matches before the cursor; on a repeat-free
// store it starts at the cursor (Store.visit). The returned records are
// shallow copies that share slices and pointers with the store: read-only.
func (s *Store) ScanPage(f Filter, limit int, cursor string) ([]Record, string, error) {
	return scanPage(s, f, limit, cursor, func(r *Record, _ []byte) (Record, error) { return *r, nil })
}

// Item is one record of a scan page in its wire form: JSON is the
// record's encoding, and Seq and Key are the two things a merge of pages
// reads from it, so nothing downstream of the store decodes it. JSON is
// the record's one encoding (encodeRecord), which its segment file or
// the memtable keeps, served as it is (DESIGN.md "Results store"): it is
// read-only, and it stays valid after its record is flushed or its
// segment evicted or compacted away, as nothing rewrites those bytes.
type Item struct {
	Seq  uint64
	Key  DedupKey
	JSON []byte
}

// ScanItems is ScanPage for a caller that will put the page on the wire:
// the same records in the same order behind the same cursor, each as an
// Item. A record with no payload yet (a memtable record no page took, a
// dir-less store's segment) is encoded here; see keepEncodings.
func (s *Store) ScanItems(f Filter, limit int, cursor string) ([]Item, string, error) {
	var made []Item // the items this page encoded
	items, next, err := scanPage(s, f, limit, cursor, func(r *Record, raw []byte) (it Item, err error) {
		it = Item{r.Seq, DedupKey{r.Experiment, r.TaskID}, raw}
		if raw == nil {
			if it.JSON, err = encodeRecord(r); err == nil {
				made = append(made, it)
			}
		}
		return it, err
	})
	s.keepEncodings(made)
	return items, next, err
}

// keepEncodings leaves the encodings a page made under the read lock
// beside the records the memtable still holds — seqs nextSeq-len(mem)
// up, as Append assigns them — for later pages and the flush to splice.
func (s *Store) keepEncodings(made []Item) {
	if len(made) == 0 {
		return
	}
	s.ctr.Add("records_encoded", int64(len(made)))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range made {
		if i := len(s.mem) - int(s.nextSeq-it.Seq); i >= 0 && i < len(s.mem) {
			s.memRaws[i] = it.JSON
		}
	}
}

// scanPage is the one page walk: the cursor, the limit and the
// one-match-past-the-end rule that decides whether a next page exists.
// elem makes a page element of each record the page takes.
func scanPage[T any](s *Store, f Filter, limit int, cursor string, elem func(r *Record, raw []byte) (T, error)) ([]T, string, error) {
	t := obs.StartTimer()
	defer func() { s.hScan.Observe(t.Elapsed()) }()
	after, err := parseCursor(cursor)
	if err != nil {
		return nil, "", err
	}
	var out []T
	var last uint64 // seq of the page's last element
	var elemErr error
	more := false
	bound := 0
	err = s.visit(f, limit <= 0, after, &bound, nil, func(r *Record, raw []byte) bool {
		if r.Seq <= after {
			return true
		}
		if limit > 0 && len(out) == limit {
			more = true
			return false
		}
		if out == nil && limit > 0 {
			out = make([]T, 0, min(limit, bound)) // the whole page, once
		}
		var e T
		if e, elemErr = elem(r, raw); elemErr != nil {
			return false
		}
		out, last = append(out, e), r.Seq
		return true
	})
	if err == nil {
		err = elemErr
	}
	if err != nil {
		return nil, "", err
	}
	s.ctr.Inc("queries_served")
	if more {
		return out, strconv.FormatUint(last, 10), nil
	}
	return out, "", nil
}

func parseCursor(cursor string) (uint64, error) {
	if cursor == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(cursor, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: bad cursor %q", cursor)
	}
	return n, nil
}

// Aggregation group-by modes.
const (
	GroupNone       = "none"
	GroupCountry    = "country"
	GroupASN        = "asn"
	GroupCountryASN = "country_asn"
	// GroupVerdict buckets by websteps blocking verdict; GroupResolver
	// by the probe's resolver class; GroupCountryResolver by both keys
	// — the censorship-report cuts.
	GroupVerdict         = "verdict"
	GroupResolver        = "resolver"
	GroupCountryResolver = "country_resolver"
	// GroupResolverChain buckets by the dnsload resolver chain shape;
	// GroupECS by whether client-subnet was attached — the cuts the ECS
	// localization study reads back out of the platform.
	GroupResolverChain = "resolver_chain"
	GroupECS           = "ecs"
)

// GroupByModes lists every group_by an aggregation accepts, in the order
// the API reference names them; "" reads as GroupNone.
var GroupByModes = []string{
	GroupNone, GroupCountry, GroupASN, GroupCountryASN,
	GroupVerdict, GroupResolver, GroupCountryResolver,
	GroupResolverChain, GroupECS,
}

// AggQuery is one aggregation request: a record filter plus how to
// bucket the matches.
type AggQuery struct {
	Filter  Filter
	GroupBy string // "" or one of GroupByModes
}

// AggGroup is one aggregation bucket: result counts, loss rate, and RTT
// statistics (computed over successful results that reported an RTT).
type AggGroup struct {
	Country string       `json:"country,omitempty"`
	ASN     topology.ASN `json:"asn,omitempty"`
	// Resolver is the bucket's resolver class (resolver /
	// country_resolver modes); Verdict its blocking verdict (verdict
	// mode).
	Resolver string `json:"resolver,omitempty"`
	Verdict  string `json:"verdict,omitempty"`
	// ResolverChain is the bucket's chain shape (resolver_chain mode);
	// ECS its client-subnet flag as "true"/"false" (ecs mode).
	ResolverChain string  `json:"resolver_chain,omitempty"`
	ECS           string  `json:"ecs,omitempty"`
	Count         int64   `json:"count"`
	OK            int64   `json:"ok"`
	LossRate      float64 `json:"loss_rate"`
	// Verdicts counts the websteps blocking verdicts inside the bucket
	// (populated whenever the bucket holds verdict-carrying results;
	// map keys marshal sorted, so the JSON stays deterministic).
	Verdicts map[string]int64 `json:"verdicts,omitempty"`
	RTTCount int64            `json:"rtt_count,omitempty"`
	RTTMean  float64          `json:"rtt_mean_ms,omitempty"`
	RTTP50   float64          `json:"rtt_p50_ms,omitempty"`
	RTTP90   float64          `json:"rtt_p90_ms,omitempty"`
	RTTP99   float64          `json:"rtt_p99_ms,omitempty"`
}

// AggReport is an aggregation response: the buckets (sorted by key for
// determinism) plus how many distinct records matched.
type AggReport struct {
	Matched int64      `json:"matched"`
	Groups  []AggGroup `json:"groups"`
}

// Aggregate computes time-window aggregations — counts, loss rate, and
// RTT mean/percentiles — over the filtered records, bucketed per the
// query's GroupBy. Segments are decoded in parallel where the cache does
// not already hold them; the aggregation itself is a serial fold in
// sequence order over the records in place, so results are independent
// of worker count.
func (s *Store) Aggregate(q AggQuery) (AggReport, error) {
	t := obs.StartTimer()
	defer func() { s.hAggregate.Observe(t.Elapsed()) }()
	fold, err := s.fold(q)
	if err != nil {
		return AggReport{}, err
	}
	return fold.Report(), nil
}

// Fold is Aggregate stopped before Report: the partial fold over this
// store's records, for a caller that merges it with other stores'
// (Folder.Merge) and reports once. It remembers the store's last report
// of its group_by (Folder.Remember), which its AppendReport splices from.
func (s *Store) Fold(q AggQuery) (*Folder, error) {
	t := obs.StartTimer()
	defer func() { s.hAggregate.Observe(t.Elapsed()) }()
	return s.fold(q)
}

func (s *Store) fold(q AggQuery) (*Folder, error) {
	fold, err := NewFolder(q.GroupBy)
	if err != nil {
		return nil, err
	}
	err = s.visit(q.Filter, true, 0, nil, fold, func(r *Record, _ []byte) bool {
		fold.Add(r)
		return true
	})
	if err != nil {
		return nil, err
	}
	s.ctr.Inc("queries_served")
	fold.Remember(s.memos[fold.GroupBy], q.Filter)
	return fold, nil
}

// ValidGroupBy rejects unknown aggregation group-by modes.
func ValidGroupBy(groupBy string) error {
	if groupBy == "" || slices.Contains(GroupByModes, groupBy) {
		return nil
	}
	return fmt.Errorf("store: unknown group_by %q", groupBy)
}

// Folder is a partial aggregation, and its JSON form is what op=fold
// puts on the wire: Add each matching, already deduplicated record, Merge
// other Folders built over disjoint record sets, then Report. What it
// keeps per group — counts, verdict counts and the raw RTT samples —
// composes exactly: counts add and sample lists concatenate. What Report
// derives from them (loss rate, mean, nearest-rank percentiles) does not
// compose, which is why it runs once, last, over sorted samples. So a
// merge of folds over disjoint sets reports what one fold over their
// union reports, field for field, in any merge order; a federation
// coordinator merges its shards' folds instead of pulling their records.
// TestFolderMergeIsExact holds that.
type Folder struct {
	GroupBy string            `json:"group_by"`
	Matched int64             `json:"matched"`
	Groups  []FoldGroup       `json:"groups"` // in first-seen order
	index   map[packedKey]int // key → position in Groups past base's; built on first use
	base    map[packedKey]int // key → position of Groups' leading groups, the sealed fold's (Merge); read-only
	last    int               // 1 + position of the group Add last folded into; 0 before the first
	memo    *ReportMemo       // the query's last report, for AppendReport (Remember)
	query   Filter            // the filter f folded, which memo's report must share
}

// GroupKey identifies a group: which fields are set depends on the mode
// (see Add).
type GroupKey struct {
	Country       string       `json:"country,omitempty"`
	ASN           topology.ASN `json:"asn,omitempty"`
	Resolver      string       `json:"resolver,omitempty"`
	Verdict       string       `json:"verdict,omitempty"`
	ResolverChain string       `json:"resolver_chain,omitempty"`
	ECS           string       `json:"ecs,omitempty"`
}

// FoldGroup is one group of a partial fold: AggGroup before its derived
// statistics, with the RTT samples (of successful results that reported
// one) they will be computed from. encoding/json prints a float64 in the
// shortest form that parses back to the same bits, so samples cross the
// wire exactly.
type FoldGroup struct {
	GroupKey
	Count    int64            `json:"count"`
	OK       int64            `json:"ok"`
	Verdicts map[string]int64 `json:"verdicts,omitempty"`
	RTTs     []float64        `json:"rtts,omitempty"`
}

// packedKey is a GroupKey as the index hashes it, once per record: three
// fields instead of six. No mode sets two of the four strings b joins, and
// joining one string with empty ones copies nothing.
type packedKey struct {
	a, b string
	asn  topology.ASN
}

func (k *GroupKey) pack() packedKey {
	return packedKey{a: k.Country, b: k.Resolver + k.Verdict + k.ResolverChain + k.ECS, asn: k.ASN}
}

// NewFolder starts an aggregation bucketed by groupBy.
func NewFolder(groupBy string) (*Folder, error) {
	if err := ValidGroupBy(groupBy); err != nil {
		return nil, err
	}
	if groupBy == "" {
		groupBy = GroupNone
	}
	return &Folder{GroupBy: groupBy}, nil
}

// group returns k's position in Groups, appending it empty when k is new.
func (f *Folder) group(k GroupKey) int {
	p := k.pack()
	if i, ok := f.base[p]; ok {
		return i
	}
	if f.index == nil { // a new Folder, one decoded from its JSON form, or one a Merge gave a base
		f.index = make(map[packedKey]int, len(f.Groups)-len(f.base))
		for i := len(f.base); i < len(f.Groups); i++ {
			f.index[f.Groups[i].pack()] = i
		}
	}
	i, ok := f.index[p]
	if !ok {
		i = len(f.Groups)
		f.index[p] = i
		f.Groups = append(f.Groups, FoldGroup{GroupKey: k})
	}
	return i
}

// Add folds one record in. It reads the record and keeps no reference.
func (f *Folder) Add(r *Record) {
	f.Matched++
	var k GroupKey
	switch f.GroupBy {
	case GroupCountry:
		k.Country = r.Country
	case GroupASN:
		k.ASN = r.ASN
	case GroupCountryASN:
		k.Country, k.ASN = r.Country, r.ASN
	case GroupVerdict:
		k.Verdict = r.Result.Verdict
	case GroupResolver:
		k.Resolver = r.Result.ResolverKind
	case GroupCountryResolver:
		k.Country, k.Resolver = r.Country, r.Result.ResolverKind
	case GroupResolverChain:
		k.ResolverChain = r.Result.ResolverChain
	case GroupECS:
		k.ECS = strconv.FormatBool(r.Result.ECS)
	}
	// A probe's sync batch is stored contiguously and shares its
	// country and ASN: the previous record's group is the likely one.
	i := f.last - 1
	if i < 0 || f.Groups[i].GroupKey != k {
		i = f.group(k)
		f.last = i + 1
	}
	g := &f.Groups[i]
	g.Count++
	if r.Result.Verdict != "" {
		if g.Verdicts == nil {
			g.Verdicts = make(map[string]int64)
		}
		g.Verdicts[r.Result.Verdict]++
	}
	if r.Result.OK {
		g.OK++
		if r.Result.RTTms > 0 {
			g.RTTs = append(g.RTTs, r.Result.RTTms)
		}
	}
}

// Merge folds the parts in, in order: Folders over records disjoint from
// f's and each other's, from Store.Fold or decoded from their JSON form.
// They are left as they were: f shares no map or sample list with them. A
// group new to f is appended in the parts' order and every sample after
// f's own, so merging the folds of runs in sequence order leaves f as Add
// over their records would, down to group and sample order. Groups and
// index are sized once, and each group new to f gets exactly its samples'
// room in one slab. A single part with a base index merged into an empty
// f shares that index, read-only, as f's base; any other Merge drops f's.
func (f *Folder) Merge(parts ...*Folder) error {
	total := 0
	for _, o := range parts {
		if o.GroupBy != f.GroupBy {
			return fmt.Errorf("store: merging a fold grouped by %q into one grouped by %q", o.GroupBy, f.GroupBy)
		}
		total += len(o.Groups)
	}
	carry := len(f.Groups) == 0 && len(parts) == 1 && parts[0].base != nil // its groups are distinct: f takes them in place
	if carry {
		f.base, f.index = parts[0].base, nil
	} else if f.base != nil || f.index == nil { // one index over every group, sized for the parts'
		f.base, f.index = nil, make(map[packedKey]int, len(f.Groups)+total)
		for i := range f.Groups {
			f.index[f.Groups[i].pack()] = i
		}
	}
	old := len(f.Groups)
	if f.Groups = slices.Grow(f.Groups, total); carry {
		f.Groups = f.Groups[:total]
	}
	// at is each part group's place in f, and room, past it, each new group's slab room.
	at, n := make([]int, 0, 2*total), 0
	room := at[total : 2*total]
	for _, o := range parts {
		for k := range o.Groups {
			i := k
			if !carry {
				i = f.group(o.Groups[k].GroupKey)
			}
			if i >= old { // a group f held grows as append grows it
				room[i-old], n = room[i-old]+len(o.Groups[k].RTTs), n+len(o.Groups[k].RTTs)
			}
			at = append(at, i)
		}
	}
	slab := make([]float64, n)
	for x, r := range room {
		if r > 0 { // capacity clipped: a later append reallocates rather than overwrite the next group's samples
			f.Groups[old+x].RTTs, slab = slab[:0:r], slab[r:]
		}
	}
	for _, o := range parts {
		f.Matched += o.Matched
		for k := range o.Groups {
			og, g := &o.Groups[k], &f.Groups[at[0]]
			at = at[1:]
			g.GroupKey = og.GroupKey
			g.Count += og.Count
			g.OK += og.OK
			if len(og.Verdicts) > 0 && g.Verdicts == nil {
				g.Verdicts = make(map[string]int64, len(og.Verdicts))
			}
			for v, n := range og.Verdicts {
				g.Verdicts[v] += n
			}
			g.RTTs = append(g.RTTs, og.RTTs...)
		}
	}
	return nil
}

// sortKey is the string the report orders a group by.
func (f *Folder) sortKey(k packedKey) string {
	switch f.GroupBy {
	case GroupASN:
		return strconv.FormatUint(uint64(k.asn), 10)
	case GroupCountryASN:
		return k.a + "/" + strconv.FormatUint(uint64(k.asn), 10)
	case GroupCountryResolver:
		return k.a + "/" + k.b
	}
	return k.a + k.b // every other mode sets at most one
}

// Report finishes the aggregation: loss rates, exact nearest-rank RTT
// percentiles, groups sorted by key. Samples are summed sorted, so the
// mean does not depend on the order records or partial folds arrived in.
// Report reads f and changes none of it: samples are sorted in a buffer.
func (f *Folder) Report() AggReport {
	rep := AggReport{Matched: f.Matched}
	if len(f.Groups) > 0 { // none stays nil: an empty report's groups are null
		rep.Groups = make([]AggGroup, 0, len(f.Groups))
	}
	f.walk(nil, func(_ int, g *AggGroup) bool {
		rep.Groups = append(rep.Groups, *g)
		return true
	})
	return rep
}

// keyedGroup is a group's place in a report: its sort key, then its
// position in Groups, which orders groups whose keys tie.
type keyedGroup struct {
	key string
	i   int
}

// keptReport is a ReportMemo's report: the filter and groups of its fold,
// the groups in report order and each one's encoding. Read-only once kept.
type keptReport struct {
	order   []keyedGroup
	enc     [][]byte
	filter  Filter
	folds   []FoldGroup
	charged int64 // what it is charged to its memo's budget, in records
}

// ReportMemo is one query's last report, swapped whole so that concurrent
// reports share it without a lock (Folder.Remember): a store and a
// coordinator keep one per group_by (NewReportMemos). Count is told each
// report's spliced and finished groups.
type ReportMemo struct {
	last   atomic.Pointer[keptReport]
	Count  func(reused, finished int)
	charge func(records int64) // a store's segment cache, told each swap's cost; nil for a coordinator's
}

// NewReportMemos returns a memo for each group_by, whose reports count
// into count.
func NewReportMemos(count func(reused, finished int)) map[string]*ReportMemo {
	memos := make(map[string]*ReportMemo, len(GroupByModes))
	for _, gb := range GroupByModes {
		memos[gb] = &ReportMemo{Count: count}
	}
	return memos
}

// Remember has f's AppendReport splice every group m's last report of the
// same filter holds unchanged and leave f's in m instead: f's groups are
// then m's, and f must not change.
func (f *Folder) Remember(m *ReportMemo, filter Filter) { f.memo, f.query = m, filter }

// sameGroup reports whether two groups hold what a report encodes alike:
// key, counts, verdicts and samples, bit for bit in order.
func sameGroup(a, b *FoldGroup) bool {
	return a.GroupKey == b.GroupKey && a.Count == b.Count && a.OK == b.OK && maps.Equal(a.Verdicts, b.Verdicts) &&
		slices.EqualFunc(a.RTTs, b.RTTs, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// walk is the one pass of a report: yield gets f's groups in report order
// until it returns false, and walk returns that order. A group sameGroup
// finds in kept (if not nil) comes as its place k in kept's order and a
// nil g; every other group is finished into g, k being -1. kept's order
// is f's when f's keys are its in sequence; otherwise f's groups are keyed
// and sorted, and kept's order is walked beside them.
func (f *Folder) walk(kept *keptReport, yield func(k int, g *AggGroup) bool) []keyedGroup {
	inPlace := kept != nil && slices.EqualFunc(f.Groups, kept.folds, func(a, b FoldGroup) bool { return a.GroupKey == b.GroupKey })
	var order []keyedGroup
	if inPlace {
		order = kept.order
	} else {
		order = make([]keyedGroup, 0, len(f.Groups))
		for i := range f.Groups {
			order = append(order, keyedGroup{f.sortKey(f.Groups[i].pack()), i})
		}
		slices.SortFunc(order, func(a, b keyedGroup) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.i, b.i)) })
	}
	var rtts []float64 // a group's samples, sorted
	var g AggGroup
	for k, m := 0, 0; k < len(order); k++ {
		fg, s := &f.Groups[order[k].i], -1
		if inPlace {
			s = k
		} else if kept != nil {
			for m < len(kept.order) && kept.order[m].key < order[k].key {
				m++
			}
			if m < len(kept.order) && kept.order[m].key == order[k].key {
				s = m
			}
		}
		if s >= 0 && sameGroup(fg, &kept.folds[kept.order[s].i]) {
			if !yield(s, nil) {
				return nil
			}
			continue
		}
		g = AggGroup{
			Country: fg.Country, ASN: fg.ASN, Resolver: fg.Resolver, Verdict: fg.Verdict,
			ResolverChain: fg.ResolverChain, ECS: fg.ECS,
			Count: fg.Count, OK: fg.OK, Verdicts: fg.Verdicts,
		}
		if g.Count > 0 {
			g.LossRate = 1 - float64(g.OK)/float64(g.Count)
		}
		rtts = append(rtts[:0], fg.RTTs...)
		slices.Sort(rtts)
		if len(rtts) > 0 {
			sum := 0.0
			for _, v := range rtts {
				sum += v
			}
			g.RTTCount = int64(len(rtts))
			g.RTTMean = sum / float64(len(rtts))
			g.RTTP50, g.RTTP90, g.RTTP99 = percentile(rtts, 50), percentile(rtts, 90), percentile(rtts, 99)
		}
		if !yield(-1, &g) {
			return nil
		}
	}
	return order
}

// percentile is the nearest-rank percentile of an ascending-sorted
// sample set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// KeySet returns the set of task IDs the store holds for one experiment.
// Recovery does not call it: its remaining non-test callers are the
// bench/ rows that time it (ROADMAP 1A(h) deletes them), and
// core.TestWatermarkMatchesWalk checks the sealed watermark against it.
func (s *Store) KeySet(experiment string) (map[string]bool, error) {
	out := make(map[string]bool)
	err := s.visit(Filter{Experiment: experiment}, true, 0, nil, nil, func(r *Record, _ []byte) bool {
		out[r.TaskID] = true
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
