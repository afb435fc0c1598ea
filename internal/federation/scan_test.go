package federation

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// fullFetchScan is the federated scan page before shares, kept as the
// reference a shared page must equal: every shard asked for the whole
// page, one merge with no top-up, and the cursor made as it was.
func fullFetchScan(c *Coordinator, f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	pos, err := parseFedCursor(cursor)
	if err != nil {
		return nil, "", QueryMeta{}, err
	}
	var fetch map[string]bool
	if cursor != "" {
		fetch = make(map[string]bool, len(pos))
		for id := range pos {
			fetch[id] = true
		}
	}
	scans := scatter(c, nil, fetch, true, func(b core.Backend, id string) (shardPage, error) {
		items, next, _, err := b.ScanItems(f, limit, pos[id])
		return shardPage{items, next}, err
	})
	meta, err := gather(c, scans)
	if err != nil {
		return nil, "", meta, err
	}
	out, consumed := mergeScans(c, scans, limit, func(int, int) {})
	nextPos := make(map[string]string, len(scans))
	for i, sc := range scans {
		if sc.skipped {
			continue
		}
		here := pos[sc.id]
		if here == "" {
			here = "0"
		}
		switch n := consumed[i]; {
		case sc.err != nil:
			nextPos[sc.id] = here
		case n == 0:
			if len(sc.v.items) > 0 || sc.v.next != "" {
				nextPos[sc.id] = here
			}
		case n == len(sc.v.items):
			if sc.v.next != "" {
				nextPos[sc.id] = sc.v.next
			}
		default:
			nextPos[sc.id] = strconv.FormatUint(sc.v.items[n-1].Seq, 10)
		}
	}
	return out, encodeFedCursor(nextPos), meta, nil
}

// scanRecord is the i-th record of a scan layout: one of three countries,
// two experiments and four ticks.
func scanRecord(i int) store.Record {
	id := fmt.Sprintf("t%05d", i)
	exp := fmt.Sprintf("fexp-%04d", 1+i%2)
	return store.Record{
		Experiment: exp, TaskID: id, ProbeID: fmt.Sprintf("p-%03d", i%17), Tick: int64(1 + i%4),
		Country: []string{"KE", "NG", "ZA"}[i%3], ASN: topology.ASN(36900 + i%5),
		Result: probes.Result{TaskID: id, Experiment: exp, Kind: probes.TaskPing, OK: i%7 != 0, RTTms: float64(5 + i%90)},
	}
}

// layShards puts n records on in-memory shards, each on a shard drawn by
// weight (a weight of 0 leaves its shard empty), and copies the first one
// onto a second shard: a duplicate key the merge must collapse. With
// remote, shard-1 is served on a socket and asked through an HTTPShard.
func layShards(t *testing.T, rng *rand.Rand, weights []int, n int, remote bool) *Coordinator {
	t.Helper()
	c, err := New("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var stores []*store.Store
	var draw []int
	for s, w := range weights {
		ctrl := core.NewController(testOwner)
		var sh Shard = NewLocalShard(ctrl)
		if remote && s == 1 {
			sh = NewHTTPShard(serveClient(t, ctrl.Handler(), int64(s)))
		}
		if err := c.AddShard(fmt.Sprintf("shard-%d", s), sh); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, ctrl.ResultStore())
		for ; w > 0; w-- {
			draw = append(draw, s)
		}
	}
	home := -1
	for i := 0; i < n; i++ {
		s := draw[rng.Intn(len(draw))]
		if home < 0 {
			home = s
		}
		if err := stores[s].Append(scanRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := stores[(home+1)%len(stores)].Append(scanRecord(0)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScanSharesMatchFullFetch holds a shared page — each shard asked for
// its share, a shard the merge runs dry on topped up — to the page a
// fetch of the whole page from every shard makes: over uneven layouts, an
// empty shard, a remote shard beside in-process ones, a planted duplicate,
// filters and page sizes, every walk matches page for page, in item
// bytes, cursor and meta.
func TestScanSharesMatchFullFetch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	layouts := [][]int{{4, 1}, {2, 0, 1}, {1, 1, 1, 1}, {6, 1, 1, 2}}
	for len(layouts) < 7 {
		w := make([]int, 2+rng.Intn(3))
		for i := range w {
			w[i] = rng.Intn(5)
		}
		w[0]++
		layouts = append(layouts, w)
	}
	filters := []store.Filter{{}, {Country: "KE"}, {Experiment: "fexp-0002"}, {FromTick: 2, ToTick: 3}}
	for li, weights := range layouts {
		c := layShards(t, rng, weights, 90+rng.Intn(60), li == 3)
		for fi, f := range filters {
			for _, limit := range []int{1, 3, 50, 200, 0} {
				cursor := ""
				for page := 0; ; page++ {
					items, next, meta, err := c.ScanItems(f, limit, cursor)
					wantItems, wantNext, wantMeta, wantErr := fullFetchScan(c, f, limit, cursor)
					if err != nil || wantErr != nil {
						t.Fatalf("layout %v filter %d limit %d page %d: err %v, reference err %v", weights, fi, limit, page, err, wantErr)
					}
					if !reflect.DeepEqual(items, wantItems) || next != wantNext || !reflect.DeepEqual(meta, wantMeta) {
						t.Fatalf("layout %d %v filter %+v limit %d page %d (cursor %q):\n got %d items, next %q, meta %+v\nwant %d items, next %q, meta %+v",
							li, weights, f, limit, page, cursor, len(items), next, meta, len(wantItems), wantNext, wantMeta)
					}
					if next == "" {
						break
					}
					if page > 200 {
						t.Fatalf("layout %v filter %d limit %d: the walk does not end", weights, fi, limit)
					}
					cursor = next
				}
			}
		}
	}
}

// failSecondScan answers its first scan and fails the second — a shard
// that goes dark between a page's first round and its top-up — then
// answers again.
type failSecondScan struct {
	core.Backend
	calls atomic.Int32
}

func (s *failSecondScan) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	if s.calls.Add(1) == 2 {
		return nil, "", QueryMeta{}, ErrShardDown
	}
	return s.Backend.ScanItems(f, limit, cursor)
}

// TestScanTopUpFailureDegrades: a shard whose top-up fails is missing
// from the page, which is degraded and counted so once; its position sits
// at its last consumed seq, so the walk, once the shard answers again,
// returns every record exactly once.
func TestScanTopUpFailureDegrades(t *testing.T) {
	c, err := New("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctrlA, ctrlB := core.NewController(testOwner), core.NewController(testOwner)
	if err := c.AddShard("shard-a", fixedShard{&failSecondScan{Backend: ctrlA.Backend()}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddShard("shard-b", NewLocalShard(ctrlB)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 43; i++ {
		st := ctrlA.ResultStore()
		if i >= 40 {
			st = ctrlB.ResultStore()
		}
		if err := st.Append(scanRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	// A page of 20 asks each shard for 12: shard-b's 3 run out after
	// seq 3, shard-a's 12 after seq 12, and its top-up for the 5 the page
	// still needs fails.
	items, next, meta, err := c.ScanItems(store.Filter{}, 20, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 15 || !meta.Degraded || !reflect.DeepEqual(meta.ShardsMissing, []string{"shard-a"}) || next != "shard-a=12" {
		t.Fatalf("page of %d items, meta %+v, next %q: want 15 items, degraded by shard-a, next shard-a=12", len(items), meta, next)
	}
	if ctr := c.Counters(); ctr["fed_degraded_queries"] != 1 || ctr["fed_scan_topups"] != 1 {
		t.Fatalf("fed_degraded_queries %d, fed_scan_topups %d: want 1, 1", ctr["fed_degraded_queries"], ctr["fed_scan_topups"])
	}

	seen := map[store.DedupKey]int{}
	for _, it := range items {
		seen[it.Key]++
	}
	for page, cursor := 1, next; cursor != ""; page, cursor = page+1, next {
		items, next, meta, err = c.ScanItems(store.Filter{}, 20, cursor)
		if err != nil || meta.Degraded || page > 4 {
			t.Fatalf("page %d, after %q: meta %+v, err %v", page, cursor, meta, err)
		}
		for _, it := range items {
			seen[it.Key]++
		}
	}
	for i := 0; i < 43; i++ {
		r := scanRecord(i)
		if n := seen[store.DedupKey{Experiment: r.Experiment, TaskID: r.TaskID}]; n != 1 {
			t.Fatalf("record %s came back %d times", r.TaskID, n)
		}
	}
	if len(seen) != 43 {
		t.Fatalf("the walk returned %d distinct records, want 43", len(seen))
	}
}

// TestScanCountersOnBenchLayout pins what the coordinator fetches to
// serve fed_4shard's KE scan: its first page of 200, and its whole walk of
// 800. In-process shards are asked for shares of 62 and topped up with
// what the page still needs; the same shards behind HTTP are asked for the
// whole page and never topped up, which takes 744 records for the first
// page and 1 932 for the walk.
func TestScanCountersOnBenchLayout(t *testing.T) {
	for _, tc := range []struct {
		name        string
		delay       time.Duration
		first, walk [3]int64 // fetched, served, topups
	}{
		{"local", -1, [3]int64{254, 200, 1}, [3]int64{954, 800, 4}},
		{"loopback", 0, [3]int64{744, 200, 0}, [3]int64{1932, 800, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := benchScanCoordinator(t, tc.delay)
			f := store.Filter{Country: "KE"}
			count := func() [3]int64 {
				ctr := c.Counters()
				return [3]int64{ctr["fed_scan_items_fetched"], ctr["fed_scan_items_served"], ctr["fed_scan_topups"]}
			}
			items, next, _, err := c.ScanItems(f, 200, "")
			if err != nil || len(items) != 200 {
				t.Fatalf("first page: %d items, err %v", len(items), err)
			}
			first := count()
			for page := 1; next != ""; page++ {
				if items, next, _, err = c.ScanItems(f, 200, next); err != nil || page > 4 {
					t.Fatalf("page %d: %d items, err %v", page, len(items), err)
				}
			}
			if first != tc.first {
				t.Fatalf("first page: fetched, served, topups %v, want %v", first, tc.first)
			}
			if got := count(); got != tc.walk {
				t.Fatalf("walk: fetched, served, topups %v, want %v", got, tc.walk)
			}
			for _, path := range []string{"/metrics", "/api/v1/stats"} {
				w := httptest.NewRecorder()
				c.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				// Each phase is observed once a query, top-ups or not.
				if once := `obs_fed_query_seconds_count{op="scan",phase="scatter"} 4`; path == "/metrics" && !strings.Contains(w.Body.String(), once) {
					t.Fatalf("/metrics lacks %s:\n%s", once, w.Body.String())
				}
				for k, name := range []string{"fed_scan_items_fetched", "fed_scan_items_served", "fed_scan_topups"} {
					if tc.walk[k] > 0 && !strings.Contains(w.Body.String(), name) { // a counter shows once it moves
						t.Fatalf("%s lacks %s:\n%s", path, name, w.Body.String())
					}
				}
			}
		})
	}
}

// stallAfterFirstScan answers its first scan and holds every later one —
// hedges too — until release is closed: a shard that hangs between a
// page's first round and its top-up.
type stallAfterFirstScan struct {
	core.Backend
	calls   atomic.Int32
	release chan struct{}
}

func (s *stallAfterFirstScan) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	if s.calls.Add(1) > 1 {
		<-s.release
	}
	return s.Backend.ScanItems(f, limit, cursor)
}

// TestScanTopUpsShareThePageDeadline: a page whose two top-ups hang waits
// one QueryDeadline, not one for each — a top-up gets what is left of the
// page's, and the second finds none — and is degraded by both shards, each
// at its last consumed seq; released, they return every record once.
func TestScanTopUpsShareThePageDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.QueryDeadline = 400 * time.Millisecond
	c, err := New("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	for s, n := range []int{40, 40, 3} {
		ctrl := core.NewController(testOwner)
		var sh Shard = NewLocalShard(ctrl)
		if n == 40 {
			sh = fixedShard{&stallAfterFirstScan{Backend: ctrl.Backend(), release: release}}
		}
		if err := c.AddShard("shard-"+string(rune('a'+s)), sh); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := ctrl.ResultStore().Append(scanRecord(40*s + i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A page of 30 asks each shard for 12: shard-c's 3 run out after seq 3,
	// then shard-a's 12 and shard-b's 12 after seq 12, 27 in all.
	began := obs.StartTimer()
	items, next, meta, err := c.ScanItems(store.Filter{}, 30, "")
	took := began.Elapsed()
	if err != nil {
		t.Fatal(err)
	}
	if took > cfg.QueryDeadline*3/2 {
		t.Fatalf("the page took %v, over one query deadline of %v", took, cfg.QueryDeadline)
	}
	if len(items) != 27 || !reflect.DeepEqual(meta.ShardsMissing, []string{"shard-a", "shard-b"}) || next != "shard-a=12;shard-b=12" {
		t.Fatalf("page of %d items, meta %+v, next %q: want 27, degraded by shard-a and shard-b, next shard-a=12;shard-b=12", len(items), meta, next)
	}
	if ctr := c.Counters(); ctr["fed_degraded_queries"] != 1 || ctr["fed_scan_topups"] != 2 {
		t.Fatalf("fed_degraded_queries %d, fed_scan_topups %d: want 1, 2", ctr["fed_degraded_queries"], ctr["fed_scan_topups"])
	}

	close(release)
	seen := map[store.DedupKey]int{}
	for page, cursor := 1, next; ; page++ {
		for _, it := range items {
			seen[it.Key]++
		}
		if cursor == "" {
			break
		}
		if items, next, meta, err = c.ScanItems(store.Filter{}, 30, cursor); err != nil || meta.Degraded || page > 4 {
			t.Fatalf("page %d, after %q: meta %+v, err %v", page, cursor, meta, err)
		}
		cursor = next
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("record %v came back %d times", k, n)
		}
	}
	if len(seen) != 83 {
		t.Fatalf("the walk returned %d distinct records, want 83", len(seen))
	}
}
