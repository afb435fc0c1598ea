package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// benchOwner submits every experiment; it is in obsd's default trusted
// cohort, so submissions are approved and queued at once.
const benchOwner = "research-team"

// obsdDefaults is cmd/obsd's flag defaults, spelled out: lease-ttl 3,
// suspect-after 2, dead-after 5, snapshot-every 1024; the store keeps
// its own defaults (FlushEvery 1024, TargetFrames 4096); no admission
// limits; every journal append fsyncs before the ack. The flush policy
// is part of the system under test, never a knob of the benchmark.
func obsdDefaults() core.DurabilityConfig {
	return core.DurabilityConfig{
		Trusted:       []string{"upanzi", benchOwner},
		LeaseTTL:      3,
		SuspectAfter:  2,
		DeadAfter:     5,
		SnapshotEvery: 1024,
	}
}

// backend is the system under test: one durable controller, or a
// coordinator over local shards that are each a durable controller.
type backend struct {
	dir     string
	cfg     core.DurabilityConfig
	ctrls   []*core.Controller
	shards  []*federation.LocalShard
	coord   *federation.Coordinator
	handler http.Handler
}

// newBackend boots the system under dir through core.Recover, which is
// how obsd starts a durable deployment. shards == 0 is the single
// controller.
func newBackend(dir string, shards int, cfg core.DurabilityConfig) (*backend, error) {
	b := &backend{dir: dir, cfg: cfg}
	if shards == 0 {
		ctrl, err := core.Recover(dir, cfg)
		if err != nil {
			return nil, err
		}
		b.ctrls = []*core.Controller{ctrl}
		b.handler = ctrl.Handler()
		return b, nil
	}
	coord, err := federation.New(filepath.Join(dir, "coordinator"), federation.Config{
		SuspectAfter:  3,
		DeadAfter:     6,
		QueryDeadline: 2 * time.Second,
		HedgeAfter:    250 * time.Millisecond,
		AutoFailover:  true,
	})
	if err != nil {
		return nil, err
	}
	b.coord = coord
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("s%d", i)
		ctrl, err := core.Recover(filepath.Join(dir, id), cfg)
		if err != nil {
			return nil, err
		}
		ls := federation.NewLocalShard(ctrl)
		if err := coord.AddShard(id, ls); err != nil {
			return nil, err
		}
		b.ctrls = append(b.ctrls, ctrl)
		b.shards = append(b.shards, ls)
	}
	b.handler = coord.Handler()
	return b, nil
}

// tick advances the logical clock the way obsd's timer does.
func (b *backend) tick() {
	if b.coord != nil {
		b.coord.Tick(1)
		return
	}
	b.ctrls[0].Tick(1)
}

// close is obsd's graceful shutdown: final snapshot, journals closed.
func (b *backend) close() error {
	var first error
	if b.coord != nil {
		first = b.coord.Close()
	}
	for _, c := range b.ctrls {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stored is how many result records the stores hold.
func (b *backend) stored() int64 {
	var n int64
	for _, c := range b.ctrls {
		n += c.ResultStore().Counters()["store_frames_appended"]
	}
	return n
}

// serve runs one request through a handler in-process — real JSON
// bodies, no socket — and times the handler alone.
func serve(h http.Handler, method, target string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), d
}

// register and submit are the set-up half of the API, driven through
// the same handler as the measured traffic.
func (b *backend) register(fleet []*simProbe) error {
	for _, p := range fleet {
		body, err := json.Marshal(p.info)
		if err != nil {
			return err
		}
		if code, resp, _ := serve(b.handler, http.MethodPost, "/api/v1/probes/register", body); code != http.StatusOK {
			return fmt.Errorf("register %s: %d %s", p.info.ID, code, resp)
		}
	}
	return nil
}

// submitChunk bounds one experiment so no single journal record or
// request body balloons (the API caps bodies at 8 MiB).
const submitChunk = 10000

// submit enqueues tasksPerProbe pings per probe, wave by wave, and
// reports the time the submissions took.
func (b *backend) submit(fleet []*simProbe, tasksPerProbe int) (time.Duration, error) {
	type body struct {
		Owner       string              `json:"owner"`
		Description string              `json:"description"`
		Assignments []probes.Assignment `json:"assignments"`
	}
	var spent time.Duration
	var as []probes.Assignment
	flush := func() error {
		if len(as) == 0 {
			return nil
		}
		raw, err := json.Marshal(body{Owner: benchOwner, Description: "bench wave", Assignments: as})
		if err != nil {
			return err
		}
		code, resp, d := serve(b.handler, http.MethodPost, "/api/v1/experiments", raw)
		spent += d
		as = as[:0]
		if code != http.StatusOK {
			if len(resp) > 200 {
				resp = resp[:200]
			}
			return fmt.Errorf("submit: %d %s", code, resp)
		}
		return nil
	}
	for w := 0; w < tasksPerProbe; w++ {
		for _, p := range fleet {
			as = append(as, probes.Assignment{
				ProbeID: p.info.ID,
				Task:    probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"},
			})
			if len(as) == submitChunk {
				if err := flush(); err != nil {
					return spent, err
				}
			}
		}
	}
	return spent, flush()
}

// scanRec is the part of a scanned record the walk checks look at.
type scanRec struct {
	Seq        uint64 `json:"seq"`
	Experiment string `json:"experiment"`
	TaskID     string `json:"task_id"`
	Country    string `json:"country"`
}

// aggQuery is one aggregate request's parameters.
type aggQuery struct {
	groupBy  string
	country  string
	from, to int64
}

// transport is how a load phase reaches the system: the HTTP handler
// for every end-to-end run, the Go API one layer down for a traced
// replay of the same operations.
type transport interface {
	sync(req core.SyncRequest) (core.SyncResponse, time.Duration, error)
	scan(country string, limit int, cursor string) ([]scanRec, string, time.Duration, error)
	aggregate(q aggQuery) (store.AggReport, time.Duration, error)
}

// httpTransport drives a handler's ServeHTTP.
type httpTransport struct{ h http.Handler }

func (t httpTransport) sync(req core.SyncRequest) (core.SyncResponse, time.Duration, error) {
	var resp core.SyncResponse
	body, err := json.Marshal(req)
	if err != nil {
		return resp, 0, err
	}
	code, raw, d := serve(t.h, http.MethodPost, "/api/v1/probes/sync", body)
	if code != http.StatusOK {
		return resp, d, fmt.Errorf("sync %s: status %d", req.ProbeID, code)
	}
	return resp, d, json.Unmarshal(raw, &resp)
}

func (t httpTransport) scan(country string, limit int, cursor string) ([]scanRec, string, time.Duration, error) {
	v := url.Values{"op": {"scan"}, "country": {country}, "limit": {strconv.Itoa(limit)}}
	if cursor != "" {
		// A federated cursor is "s0=17;s1=40"; sent raw, Go's query
		// parser drops it and the walk reads page one forever.
		v.Set("cursor", cursor)
	}
	code, raw, d := serve(t.h, http.MethodGet, "/api/v1/query?"+v.Encode(), nil)
	if code != http.StatusOK {
		return nil, "", d, fmt.Errorf("scan: status %d", code)
	}
	var page struct {
		Items      []scanRec `json:"items"`
		NextCursor string    `json:"next_cursor"`
		Degraded   bool      `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		return nil, "", d, err
	}
	if page.Degraded {
		return nil, "", d, fmt.Errorf("scan: degraded response")
	}
	return page.Items, page.NextCursor, d, nil
}

func (t httpTransport) aggregate(q aggQuery) (store.AggReport, time.Duration, error) {
	v := url.Values{"op": {"aggregate"}, "group_by": {q.groupBy}}
	if q.country != "" {
		v.Set("country", q.country)
	}
	if q.from > 0 {
		v.Set("from_tick", strconv.FormatInt(q.from, 10))
		v.Set("to_tick", strconv.FormatInt(q.to, 10))
	}
	var out struct {
		store.AggReport
		Degraded bool `json:"degraded"`
	}
	code, raw, d := serve(t.h, http.MethodGet, "/api/v1/query?"+v.Encode(), nil)
	if code != http.StatusOK {
		return out.AggReport, d, fmt.Errorf("aggregate: status %d", code)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out.AggReport, d, err
	}
	if out.Degraded {
		return out.AggReport, d, fmt.Errorf("aggregate: degraded response")
	}
	return out.AggReport, d, nil
}

// apiTransport is one layer down: a single controller's Go API.
type apiTransport struct{ ctrl *core.Controller }

func (t apiTransport) sync(req core.SyncRequest) (core.SyncResponse, time.Duration, error) {
	t0 := time.Now()
	resp, err := t.ctrl.SyncProbe(req.ProbeID, req.Results, req.Max)
	return resp, time.Since(t0), err
}

func (t apiTransport) scan(country string, limit int, cursor string) ([]scanRec, string, time.Duration, error) {
	t0 := time.Now()
	recs, next, err := t.ctrl.ScanResults(store.Filter{Country: country}, limit, cursor)
	d := time.Since(t0)
	out := make([]scanRec, len(recs))
	for i, r := range recs {
		out[i] = scanRec{Seq: r.Seq, Experiment: r.Experiment, TaskID: r.TaskID, Country: r.Country}
	}
	return out, next, d, err
}

func (t apiTransport) aggregate(q aggQuery) (store.AggReport, time.Duration, error) {
	t0 := time.Now()
	rep, err := t.ctrl.AggregateResults(store.AggQuery{
		Filter:  store.Filter{Country: q.country, FromTick: q.from, ToTick: q.to},
		GroupBy: q.groupBy,
	})
	return rep, time.Since(t0), err
}

// dirBytes walks a directory and sums the regular files in it.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
