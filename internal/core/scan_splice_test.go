package core_test

// The splice invariant (DESIGN.md "Results store"): an op=scan page is
// assembled from the bytes each record already has — its segment frame's
// payload — and must be, byte for byte, the page encoding/json writes
// from the records themselves. The oracle below is that encoding, over
// the records the Go API returns; the handlers never decode to them. This
// package may import internal/federation, so both tiers are held here.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// spliceRecs makes n records whose strings need every kind of escaping
// encoding/json does: HTML characters, U+2028/U+2029, quotes, backslashes,
// control characters, and invalid UTF-8 as a result arrives with it — the
// JSON decoder of the sync route has already put U+FFFD in its place
// (TestInvalidUTF8ServesTheFrame has the Go API's raw bytes).
func spliceRecs(shard, from, n int) []store.Record {
	nasty := []string{
		`a<b>&c`, "line\u2028sep\u2029arator", `say "hi" \ bye`, strings.ToValidUTF8("bad\xffutf8\xc0", "\uFFFD"), "tab\there\x01", "plain",
	}
	recs := make([]store.Record, n)
	for i := range recs {
		k := from + i
		id := fmt.Sprintf("s%d-t%03d", shard, k)
		recs[i] = store.Record{
			Experiment: "exp-splice", TaskID: id, ProbeID: fmt.Sprintf("p<%d>", k%3), Tick: int64(1 + k),
			Country: []string{"KE", "NG"}[k%2], ASN: topology.ASN(36900 + k%2),
			Result: probes.Result{
				TaskID: id, Experiment: "exp-splice", Kind: probes.TaskPing, OK: k%4 != 0,
				Error: nasty[k%len(nasty)], RTTms: 1 / float64(k+3), ResolverCountry: nasty[(k+1)%len(nasty)],
				Hops: []probes.HopRecord{{TTL: 1, Addr: nasty[(k+2)%len(nasty)]}},
			},
		}
	}
	return recs
}

// spliceController recovers a durable controller whose store holds a
// record in every state a page can meet it in: the pinned segment an old
// binary wrote, a segment flushed and one compacted by an earlier process
// (all three cold), one compacted and one flushed by this process (cached
// from the buffer that was written), and a memtable (never encoded).
func spliceController(t *testing.T, shard int, pinned bool) *core.Controller {
	t.Helper()
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	if err := os.Mkdir(storeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if pinned {
		const seg = "seg-0000000000000001.seg"
		data, err := os.ReadFile(filepath.Join("..", "store", "testdata", "pin", seg))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(storeDir, seg), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	seal := func(st *store.Store, n int) {
		t.Helper()
		if err := st.Append(spliceRecs(shard, next, n)...); err != nil {
			t.Fatal(err)
		}
		next += n
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Sizes chosen against TargetFrames 8 so each Compact merges exactly
	// the last two segments: 3 (pinned) + 6 and 6 + 3 do not fit, 3 + 3 do.
	opts := store.Options{FlushEvery: 100, TargetFrames: 8}
	earlier, err := store.Open(storeDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seal(earlier, 6)
	seal(earlier, 3)
	seal(earlier, 3)
	if err := earlier.Compact(0); err != nil {
		t.Fatal(err)
	}
	if err := earlier.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := core.Recover(dir, core.DurabilityConfig{StoreFlushEvery: opts.FlushEvery, StoreTargetFrames: opts.TargetFrames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	st := c.ResultStore()
	seal(st, 3)
	seal(st, 3)
	if err := st.Compact(0); err != nil {
		t.Fatal(err)
	}
	seal(st, 5)
	if err := st.Append(spliceRecs(shard, next, 4)...); err != nil {
		t.Fatal(err)
	}
	want := 4
	if pinned {
		want++
	}
	if got := st.SegmentCount(); got != want || st.MemtableLen() != 4 {
		t.Fatalf("fixture store has %d segments and %d memtable records, want %d and 4", got, st.MemtableLen(), want)
	}
	return c
}

// scanner is the Go API a tier's op=scan must agree with.
type scanner func(f store.Filter, limit int, cursor string) ([]store.Record, string, core.QueryMeta, error)

// wantPage is the body the API wrote for a scan page before pages were
// spliced, and must keep writing.
func wantPage(t *testing.T, recs []store.Record, next string, meta core.QueryMeta) []byte {
	t.Helper()
	if recs == nil {
		recs = []store.Record{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(core.Page{Items: recs, NextCursor: next, QueryMeta: meta}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walkSpliced walks f at the given page size through the handler and
// through the Go API side by side, to its end or for maxPages pages
// (0: no bound), and requires the same bytes of every page. It returns
// the pages and the records it saw.
func walkSpliced(t *testing.T, h http.Handler, scan scanner, f store.Filter, limit, maxPages int) (pages, total int) {
	t.Helper()
	cursor := ""
	for {
		recs, next, meta, err := scan(f, limit, cursor)
		if err != nil {
			t.Fatalf("scan(%+v, %d, %q): %v", f, limit, cursor, err)
		}
		q := f.Values()
		q.Set("op", "scan")
		q.Set("limit", strconv.Itoa(limit))
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?"+q.Encode(), nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET ?%s: status %d: %s", q.Encode(), w.Code, w.Body)
		}
		if want := wantPage(t, recs, next, meta); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("GET ?%s: the handler wrote\n%s\nencoding/json writes\n%s", q.Encode(), w.Body.Bytes(), want)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		pages++
		total += len(recs)
		if next == "" || pages == maxPages {
			return pages, total
		}
		cursor = next
	}
}

// checkSpliced runs the walks every tier is held to: whole store and
// filtered, page sizes that cut segments, pages and the memtable at
// different places, everything in one page, and a filter nothing matches.
func checkSpliced(t *testing.T, h http.Handler, scan scanner, records int) {
	t.Helper()
	for _, limit := range []int{1, 5, 7, 0} {
		if _, total := walkSpliced(t, h, scan, store.Filter{}, limit, 0); total != records {
			t.Fatalf("limit %d: walked %d records, the fixture holds %d", limit, total, records)
		}
		walkSpliced(t, h, scan, store.Filter{Country: "KE", Experiment: "exp-splice"}, limit, 0)
	}
	if pages, total := walkSpliced(t, h, scan, store.Filter{Country: "ZZ"}, 5, 0); pages != 1 || total != 0 {
		t.Fatalf("empty scan: %d pages, %d records", pages, total)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?op=scan&country=ZZ", nil))
	if got := w.Body.String(); got != "{\"items\":[]}\n" {
		t.Fatalf("empty page is %q", got)
	}
}

// TestScanPageIsSpliced holds a controller's op=scan to the invariant.
func TestScanPageIsSpliced(t *testing.T) {
	c := spliceController(t, 0, true)
	scan := func(f store.Filter, limit int, cursor string) ([]store.Record, string, core.QueryMeta, error) {
		recs, next, err := c.ScanResults(f, limit, cursor)
		return recs, next, core.QueryMeta{}, err
	}
	checkSpliced(t, c.Handler(), scan, 3+6+3+3+3+3+5+4)
	ctr := c.ResultStore().Counters()
	if ctr["segment_cache_misses"] == 0 || ctr["segment_cache_bytes"] == 0 {
		t.Fatalf("the walk should have cold-loaded segments and kept their images: %v", ctr)
	}
}

// TestFederatedScanPageIsSpliced holds a coordinator's to it, over
// in-process shards and over remote ones, complete and degraded: a
// shard's bytes cross the coordinator untouched, and the degradation note
// lands behind the items where encoding/json puts it.
func TestFederatedScanPageIsSpliced(t *testing.T) {
	const perShard = 6 + 3 + 3 + 3 + 3 + 5 + 4
	build := func(t *testing.T, shard func(i int, c *core.Controller) (federation.Shard, func())) (*federation.Coordinator, func()) {
		coord, err := federation.New("", federation.Config{QueryDeadline: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		var kill func()
		for i := 0; i < 3; i++ {
			sh, k := shard(i, spliceController(t, i, i == 0))
			if i == 1 {
				kill = k
			}
			if err := coord.AddShard(fmt.Sprintf("shard-%d", i), sh); err != nil {
				t.Fatal(err)
			}
		}
		return coord, kill
	}
	check := func(t *testing.T, coord *federation.Coordinator, kill func()) {
		checkSpliced(t, coord.Handler(), coord.ScanPage, 3+3*perShard)
		// A dead shard keeps its place in the cursor, so a degraded walk
		// has no last page: its first three pages are held instead.
		kill()
		_, _, meta, err := coord.ScanPage(store.Filter{}, 4, "")
		if err != nil || !meta.Degraded || len(meta.ShardsMissing) != 1 {
			t.Fatalf("with shard-1 down: meta %+v, err %v", meta, err)
		}
		for _, limit := range []int{4, 0} {
			walkSpliced(t, coord.Handler(), coord.ScanPage, store.Filter{}, limit, 3)
		}
	}
	t.Run("local shards", func(t *testing.T) {
		coord, kill := build(t, func(_ int, c *core.Controller) (federation.Shard, func()) {
			ls := federation.NewLocalShard(c)
			return ls, func() { ls.Kill() }
		})
		check(t, coord, kill)
	})
	t.Run("remote shards", func(t *testing.T) {
		coord, kill := build(t, func(i int, c *core.Controller) (federation.Shard, func()) {
			srv := httptest.NewServer(c.Handler())
			t.Cleanup(srv.Close)
			cl := core.NewClientSeeded(srv.URL, int64(i))
			cl.Sleep = func(time.Duration) {} // no real sleeping in retries
			return federation.NewHTTPShard(cl), srv.Close
		})
		check(t, coord, kill)
	})
}

// TestQueryScanItemsKeepsTheBytes: what a coordinator's remote shard call
// hands it is each record's bytes as the shard served them, with the
// three fields the merge reads decoded out.
func TestQueryScanItemsKeepsTheBytes(t *testing.T) {
	c := spliceController(t, 0, true)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := core.NewClient(srv.URL)
	cursor := ""
	for {
		want, wantNext, err := c.ScanItems(store.Filter{Country: "KE"}, 4, cursor)
		if err != nil {
			t.Fatal(err)
		}
		got, next, _, err := cl.QueryScan(store.Filter{Country: "KE"}, 4, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if next != wantNext || len(got) != len(want) {
			t.Fatalf("cursor %q: %d items and next %q over HTTP, %d and %q from the store", cursor, len(got), next, len(want), wantNext)
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Key != want[i].Key || !bytes.Equal(got[i].JSON, want[i].JSON) {
				t.Fatalf("cursor %q item %d: %d %v %s over HTTP, %d %v %s from the store", cursor, i,
					got[i].Seq, got[i].Key, got[i].JSON, want[i].Seq, want[i].Key, want[i].JSON)
			}
		}
		if next == "" {
			break
		}
		cursor = next
	}
	var apiErr *core.APIError
	if _, _, _, err := cl.QueryScan(store.Filter{}, 4, "not a cursor"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bad cursor: err %v, want a 400", err)
	}
}

// TestInvalidUTF8ServesTheFrame pins the one string encoding/json does
// not write the same way twice. Bytes that are not UTF-8 — which only a
// Go API caller can append; the wire's decoder replaces them — are
// written as the escape \ufffd, and the U+FFFD a decode turns that into is
// written raw. A page used to carry the first spelling until a restart
// and the second after it; spliced, it carries the frame's spelling in
// every state, and both decode to the same record.
func TestInvalidUTF8ServesTheFrame(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DurabilityConfig{StoreFlushEvery: 100}
	c, err := core.Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := spliceRecs(0, 0, 1)[0]
	rec.Result.Error = "bad\xffutf8"
	if err := c.ResultStore().Append(rec); err != nil {
		t.Fatal(err)
	}
	page := func(c *core.Controller) []byte {
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?op=scan", nil))
		return w.Body.Bytes()
	}
	inMemtable := page(c)
	if !bytes.Contains(inMemtable, []byte(`"error":"bad\ufffdutf8"`)) {
		t.Fatalf("memtable page: %s", inMemtable)
	}
	if err := c.ResultStore().Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := page(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err = core.Recover(dir, cfg); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reopened := page(c)
	if !bytes.Equal(flushed, inMemtable) || !bytes.Equal(reopened, inMemtable) {
		t.Fatalf("one record, three spellings:\n memtable %s flushed  %s reopened %s", inMemtable, flushed, reopened)
	}
	recs, _, err := c.ScanResults(store.Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var got, want core.Page
	if err := json.Unmarshal(reopened, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantPage(t, recs, "", core.QueryMeta{}), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the page decodes to %+v, the records' own encoding to %+v", got, want)
	}
}
