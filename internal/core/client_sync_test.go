package core

// client_sync_test.go pins the client side of the batched hot path:
// the wire encoding of a sync call and the DrainWithSync round loop —
// one request per round, spool acked only after acceptance, long-poll
// only when idle.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/framelog"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/spool"
)

// queryRecorder wraps a handler and keeps each request's op-relevant
// URL parts in arrival order.
type queryRecorder struct {
	http.Handler
	mu   sync.Mutex
	seen []url.URL
}

func (q *queryRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q.mu.Lock()
	q.seen = append(q.seen, *r.URL)
	q.mu.Unlock()
	q.Handler.ServeHTTP(w, r)
}

func (q *queryRecorder) urls() []url.URL {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]url.URL(nil), q.seen...)
}

// TestClientSyncWaitEncoding: wait=0 sends no query; a positive wait
// rides as a Go duration string.
func TestClientSyncWaitEncoding(t *testing.T) {
	c := NewController()
	mustRegister(t, c, "cl-01", 36924, "RW")
	rec := &queryRecorder{Handler: c.Handler()}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	cl := NewClient(srv.URL)

	if _, err := cl.Sync(SyncRequest{ProbeID: "cl-01"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sync(SyncRequest{ProbeID: "cl-01"}, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	urls := rec.urls()
	if len(urls) != 2 {
		t.Fatalf("%d requests, want 2", len(urls))
	}
	if urls[0].RawQuery != "" {
		t.Fatalf("wait=0 sent query %q, want none", urls[0].RawQuery)
	}
	if got := urls[1].Query().Get("wait"); got != "1.5s" {
		t.Fatalf("wait encoded as %q, want 1.5s", got)
	}
}

// TestDrainWithSyncRoundTrips runs a full probe drain over the batched
// path and counts requests: 5 queued tasks cost exactly two sync
// round-trips (lease round + deliver round), every result lands
// recorded, and the spool ends empty — nothing stranded, nothing
// double-delivered.
func TestDrainWithSyncRoundTrips(t *testing.T) {
	ctrl := NewController("owner")
	mustRegister(t, ctrl, "kgl-01", 36924, "RW")
	if _, err := ctrl.SubmitExperiment("owner", "drain", pingAssignments("kgl-01", 5)); err != nil {
		t.Fatal(err)
	}
	rec := &queryRecorder{Handler: ctrl.Handler()}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	cl := NewClient(srv.URL)
	sp, err := spool.Open(t.TempDir(), spool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	agent := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true},
		testNet, testDNS, testWeb)

	n, err := DrainWithSync(cl, agent, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("executed %d tasks, want 5", n)
	}
	if got := len(rec.urls()); got != 2 {
		t.Fatalf("drain cost %d round-trips, want 2 (lease, then deliver+empty-lease)", got)
	}
	if sp.Len() != 0 {
		t.Fatalf("%d results stranded in the spool", sp.Len())
	}
	st := ctrl.Stats()
	if st.Counters["results_recorded"] != 5 || st.OutstandingLeases != 0 {
		t.Fatalf("recorded=%d outstanding=%d, want 5/0",
			st.Counters["results_recorded"], st.OutstandingLeases)
	}
	// Heartbeat rode along: the probe was touched without a single
	// heartbeat call.
	if st.Counters["syncs"] != 2 || st.Counters["heartbeats"] != 0 {
		t.Fatalf("syncs=%d heartbeats=%d, want 2/0",
			st.Counters["syncs"], st.Counters["heartbeats"])
	}
}

// TestDrainWithSyncParksOnlyWhenIdle: rounds with an empty spool offer
// the long-poll wait (the server answers immediately when work is
// queued), while delivery rounds — results in hand — must not park.
func TestDrainWithSyncParksOnlyWhenIdle(t *testing.T) {
	ctrl := NewController("owner")
	mustRegister(t, ctrl, "kgl-01", 36924, "RW")
	if _, err := ctrl.SubmitExperiment("owner", "drain", pingAssignments("kgl-01", 3)); err != nil {
		t.Fatal(err)
	}
	rec := &queryRecorder{Handler: ctrl.Handler()}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	cl := NewClient(srv.URL)
	sp, err := spool.Open(t.TempDir(), spool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	agent := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true},
		testNet, testDNS, testWeb)

	if _, err := DrainWithSync(cl, agent, sp, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	urls := rec.urls()
	if len(urls) != 2 {
		t.Fatalf("%d requests, want 2", len(urls))
	}
	// Round 1: spool empty, so the wait rides along (the queued tasks
	// make the server answer at once).
	if got := urls[0].Query().Get("wait"); got != "30ms" {
		t.Fatalf("idle round sent wait=%q, want 30ms", got)
	}
	// Round 2: three results in hand — delivering must not park.
	if got := urls[1].Query().Get("wait"); got != "" {
		t.Fatalf("delivery round parked: wait=%q, want none", got)
	}
}

// stoppedSpool is a ResultSpool whose log has fail-stopped: every write
// returns the sticky error, as internal/spool does after a failed fsync.
type stoppedSpool struct{ appends int }

var errSpoolStopped = fmt.Errorf("spool: %w: injected EIO", framelog.ErrStopped)

func (s *stoppedSpool) Append(probes.Result) error               { s.appends++; return errSpoolStopped }
func (s *stoppedSpool) DrainBatch(int) ([]probes.Result, uint64) { return nil, 0 }
func (s *stoppedSpool) AckBatch(uint64) error                    { return errSpoolStopped }
func (s *stoppedSpool) Len() int                                 { return 0 }

// TestDrainReportsStoppedSpool: when the spool cannot persist a result,
// the drain stops executing at that task — running the rest would spend
// the probe's data budget on results nothing can keep — and return an
// error the agent can recognise as framelog.ErrStopped, so it exits for
// its supervisor to reopen the spool instead of looping.
func TestDrainReportsStoppedSpool(t *testing.T) {
	drains := map[string]func(*Client, *probes.Agent, ResultSpool) (int, error){
		"DrainWithSync": func(cl *Client, a *probes.Agent, sp ResultSpool) (int, error) {
			return DrainWithSync(cl, a, sp, 0)
		},
	}
	for name, drain := range drains {
		ctrl := NewController("owner")
		mustRegister(t, ctrl, "kgl-01", 36924, "RW")
		if _, err := ctrl.SubmitExperiment("owner", "drain", pingAssignments("kgl-01", 3)); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(ctrl.Handler())
		agent := probes.NewAgent(probes.Config{ID: "kgl-01", ASN: 36924, HasWired: true},
			testNet, testDNS, testWeb)
		sp := &stoppedSpool{}
		n, err := drain(NewClient(srv.URL), agent, sp)
		srv.Close()
		if !errors.Is(err, framelog.ErrStopped) {
			t.Fatalf("%s: err = %v, want one wrapping framelog.ErrStopped", name, err)
		}
		if n != 0 || sp.appends != 1 {
			t.Fatalf("%s: %d tasks completed, %d results offered to the spool; want 0 and 1 (no task run after the failed one)", name, n, sp.appends)
		}
	}
}
