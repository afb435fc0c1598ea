package core

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// APIError is a non-2xx controller response decoded from the v1 error
// envelope. Errors returned by Client calls wrap it, so callers can
// branch on the machine code and log the request id the controller
// traced the failure under:
//
//	var apiErr *core.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == core.ErrCodeNotFound { ... }
type APIError struct {
	Status    int    // HTTP status code
	Code      string // machine code (ErrCode* constants)
	Message   string
	RequestID string
	// RetryAfter is the server's Retry-After delay in seconds (0 when
	// the header was absent): set on 429s from admission control and on
	// 503s from the recovery gate or a federation coordinator whose
	// owning shard is down.
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("core: api error %d %s: %s (request_id=%s)", e.Status, e.Code, e.Message, e.RequestID)
}

// decodeAPIError turns a non-2xx response body into an *APIError. A
// body that is not a v1 envelope (a pre-envelope controller) becomes an
// APIError with an empty Code carrying the raw body text.
func decodeAPIError(status int, body []byte) *APIError {
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{
			Status:    status,
			Code:      env.Error.Code,
			Message:   env.Error.Message,
			RequestID: env.Error.RequestID,
		}
	}
	return &APIError{Status: status, Message: string(bytes.TrimSpace(body))}
}

// DefaultHTTPTimeout bounds every controller round trip so a hung
// connection on a flaky cellular link cannot wedge the probe loop.
const DefaultHTTPTimeout = 10 * time.Second

// Client is the probe-side HTTP client for the controller API —
// what cmd/obsprobe uses to participate in the observatory.
//
// Every call is retried on transient failures — transport errors, 429s,
// and 5xx responses (including the controller's 503-while-recovering) —
// with bounded exponential backoff and jitter drawn from a seeded RNG,
// so retry schedules are reproducible. Retrying is safe across the
// board: the controller deduplicates result uploads by (experiment,
// task) and experiment submissions by client request id.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8600"
	HTTP *http.Client

	// MaxAttempts caps tries per call (default 4).
	MaxAttempts int
	// Sleep is the wait hook (nil means time.Sleep); tests replace it
	// to retry without wall-clock delays.
	Sleep func(time.Duration)
	// Obs, when set, records one latency histogram series per API call
	// (obs_client_seconds, call=<name>) and holds the resilience counters
	// (obs_probe_resilience_total); nil keeps the counters in a private
	// registry, resolved at first use. cmd/obsprobe wires one in, shared
	// with its spool, and logs both at shutdown.
	Obs *obs.Registry

	// BreakerThreshold enables the circuit breaker: after this many
	// consecutive transport failures (connection errors — a received
	// response of any status is proof the uplink works) the breaker
	// opens and calls fail fast with ErrCircuitOpen instead of burning
	// the cellular budget on a dead link. 0 disables the breaker.
	BreakerThreshold int

	mu       sync.Mutex
	rng      *rand.Rand
	reqSeq   int
	brkFails int  // consecutive transport failures
	brkOpen  bool // breaker tripped
	brkCalls int  // calls arriving while open (for half-open probes)
	res      *obs.Family
}

// ErrCircuitOpen is returned (wrapped) when the circuit breaker is open
// and the call was not selected as a half-open probe. The uplink is
// considered down; callers should back off at their own cadence (the
// probe's poll loop) rather than retry immediately.
var ErrCircuitOpen = fmt.Errorf("core: circuit breaker open (uplink considered down)")

const (
	// The delay before the first retry doubles per attempt up to
	// backoffCap, then a seeded jitter in [1/2, 1) of the step applies.
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
	// breakerProbeEvery lets every Nth call through a tripped breaker as
	// a half-open probe; a probe that gets any response closes it.
	breakerProbeEvery = 4
)

// NewClient builds a client for the given controller base URL with the
// default timeout and retry policy (jitter seed 1).
func NewClient(base string) *Client { return NewClientSeeded(base, 1) }

// NewClientSeeded is NewClient with an explicit jitter seed, for
// deterministic multi-client tests.
func NewClientSeeded(base string, seed int64) *Client {
	return &Client{
		Base:        base,
		HTTP:        &http.Client{Timeout: DefaultHTTPTimeout},
		MaxAttempts: 4,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// backoff returns the jittered delay before retry number attempt (0-based).
func (c *Client) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt; i++ {
		d *= 2
		if d > backoffCap {
			d = backoffCap
			break
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// counters returns the resilience counter family, resolved at first use.
func (c *Client) counters() *obs.Family {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.res == nil {
		reg := c.Obs
		if reg == nil {
			reg = obs.NewRegistry()
		}
		c.res = reg.Counters("obs_probe_resilience_total")
	}
	return c.res
}

// ResilienceCounters snapshots the client's resilience events:
// breaker_open_total, breaker_fastfail, retry_after_honored — and, when
// Obs is shared, every other owner's counts in the same family (the
// fleet's other clients, obsprobe's spool).
func (c *Client) ResilienceCounters() map[string]int64 {
	return c.counters().Snapshot()
}

// breakerAdmit decides whether a call may proceed. With the breaker
// open, only every breakerProbeEvery-th arrival passes as a half-open
// probe; the rest fail fast.
func (c *Client) breakerAdmit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.BreakerThreshold <= 0 || !c.brkOpen {
		return true
	}
	c.brkCalls++
	return c.brkCalls%breakerProbeEvery == 0
}

// breakerFail records a transport failure; enough in a row trip the
// breaker.
func (c *Client) breakerFail() {
	if c.BreakerThreshold <= 0 {
		return
	}
	c.mu.Lock()
	c.brkFails++
	trip := !c.brkOpen && c.brkFails >= c.BreakerThreshold
	if trip {
		c.brkOpen = true
		c.brkCalls = 0
	}
	c.mu.Unlock()
	if trip {
		c.counters().Inc("breaker_open_total")
	}
}

// breakerOK records a received response (any status): the uplink works,
// so the breaker closes and the failure streak resets.
func (c *Client) breakerOK() {
	if c.BreakerThreshold <= 0 {
		return
	}
	c.mu.Lock()
	c.brkFails = 0
	c.brkOpen = false
	c.mu.Unlock()
}

// transientStatus reports whether a response status is worth retrying.
func transientStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryAfter parses a Retry-After header as delay seconds, the form the
// controller's admission layer and recovery gate emit. Absent or
// unparseable headers (including the HTTP-date form) return (0, false).
func retryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// do issues one request per attempt, retrying transient failures. body
// is re-sent verbatim on each attempt. Every call carries one
// X-Request-ID, stable across its retries, so a client log line joins
// against the controller's traces and slow-request log; name tags the
// per-call latency series when Obs is set.
func (c *Client) do(name, method, path string, body []byte, out interface{}) error {
	if c.Obs != nil {
		t := obs.StartTimer()
		defer func() { c.Obs.Hist("obs_client_seconds", "call", name).Observe(t.Elapsed()) }()
	}
	if !c.breakerAdmit() {
		c.counters().Inc("breaker_fastfail")
		return fmt.Errorf("core: %s %s: %w", method, path, ErrCircuitOpen)
	}
	reqID := mintRequestID()
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	var serverDelay time.Duration
	var haveServerDelay bool
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// The server's Retry-After beats the client's own jittered
			// backoff: the controller knows when it will have capacity
			// (or be recovered) better than our exponential guess.
			if haveServerDelay {
				c.counters().Inc("retry_after_honored")
				c.sleep(serverDelay)
				haveServerDelay = false
			} else {
				c.sleep(c.backoff(attempt - 1))
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.Base+path, rd)
		if err != nil {
			return err
		}
		req.Header.Set(RequestIDHeader, reqID)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			c.breakerFail()
			lastErr = err
			continue
		}
		c.breakerOK()
		if transientStatus(resp.StatusCode) {
			serverDelay, haveServerDelay = retryAfter(resp.Header)
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			apiErr := decodeAPIError(resp.StatusCode, b)
			if haveServerDelay {
				apiErr.RetryAfter = int(serverDelay / time.Second)
			}
			lastErr = apiErr
			continue
		}
		err = decodeResponse(resp, out)
		resp.Body.Close()
		return err
	}
	return fmt.Errorf("core: %s %s failed after %d attempts: %w", method, path, attempts, lastErr)
}

func (c *Client) post(name, path string, body, out interface{}) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(name, http.MethodPost, path, buf, out)
}

func (c *Client) get(name, path string, out interface{}) error {
	return c.do(name, http.MethodGet, path, nil, out)
}

func decodeResponse(resp *http.Response, out interface{}) error {
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		apiErr := decodeAPIError(resp.StatusCode, b)
		if d, ok := retryAfter(resp.Header); ok {
			apiErr.RetryAfter = int(d / time.Second)
		}
		return apiErr
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getPage fetches a list endpoint and decodes the {items, next_cursor}
// page shape into items.
func (c *Client) getPage(name, path string, items interface{}) (string, error) {
	var pg struct {
		Items      json.RawMessage `json:"items"`
		NextCursor string          `json:"next_cursor"`
	}
	if err := c.get(name, path, &pg); err != nil {
		return "", err
	}
	if len(pg.Items) > 0 {
		if err := json.Unmarshal(pg.Items, items); err != nil {
			return "", err
		}
	}
	return pg.NextCursor, nil
}

// Register announces a probe to the controller (idempotent: retried).
func (c *Client) Register(p ProbeInfo) error {
	return c.post("probe_register", "/api/v1/probes/register", p, nil)
}

// Sync performs one batched probe round-trip: heartbeat + spooled
// results + task-lease ask in a single POST (see SyncRequest for the
// max semantics). wait > 0 long-polls the controller for up to that
// duration when it has no tasks to grant; keep it comfortably below
// the HTTP client timeout (DefaultHTTPTimeout) or the transport will
// cut the park short. Retrying is safe end to end: results dedup by
// (experiment, task) and a lost lease response expires back into the
// queue like any abandoned lease.
func (c *Client) Sync(req SyncRequest, wait time.Duration) (SyncResponse, error) {
	path := "/api/v1/probes/sync"
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var out SyncResponse
	err := c.post("probe_sync", path, req, &out)
	return out, err
}

// Submit posts an experiment, retrying transient failures like every
// other call: each submission carries a unique request id and the
// controller dedups submissions by it, so a redelivered Submit returns
// the already-created experiment instead of doubling the workload.
func (c *Client) Submit(owner, description string, as []probes.Assignment) (*Experiment, error) {
	return c.SubmitRequest(SubmitRequest{RequestID: c.newRequestID(), Owner: owner, Description: description, Assignments: as})
}

// SubmitRequest posts a submission as the caller wrote it: its
// idempotency key, and its pinned experiment id if any. A federation
// coordinator's remote shard is pushed its partition this way, under the
// federated id, where a per-shard request id makes a re-push a dedup hit
// instead of a duplicate workload.
func (c *Client) SubmitRequest(req SubmitRequest) (*Experiment, error) {
	var out Experiment
	if err := c.post("experiment_submit", "/api/v1/experiments", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// newRequestID mints a submission idempotency key: unique per call, and
// stable across the retries of that call. IDs are drawn from crypto/rand
// (they are opaque dedup keys — uniqueness matters, reproducibility does
// not).
func (c *Client) newRequestID() string {
	var buf [12]byte
	if _, err := crand.Read(buf[:]); err != nil {
		// Fall back to the jitter RNG rather than failing a submission
		// over an entropy error.
		c.mu.Lock()
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(1))
		}
		c.rng.Read(buf[:]) //nolint:errcheck // never fails
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.reqSeq++
	seq := c.reqSeq
	c.mu.Unlock()
	return fmt.Sprintf("req-%s-%04d", hex.EncodeToString(buf[:]), seq)
}

// Experiment fetches one experiment's vetting status and assignments.
func (c *Client) Experiment(expID string) (*Experiment, error) {
	var out Experiment
	if err := c.get("experiment_get", fmt.Sprintf("/api/v1/experiments/%s", expID), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Approve approves a pending experiment (idempotent: retried).
func (c *Client) Approve(expID string) error {
	return c.post("experiment_approve", fmt.Sprintf("/api/v1/experiments/%s/approve", expID), struct{}{}, nil)
}

// Reject rejects a pending experiment (idempotent: retried).
func (c *Client) Reject(expID string) error {
	return c.post("experiment_reject", fmt.Sprintf("/api/v1/experiments/%s/reject", expID), struct{}{}, nil)
}

// Results fetches an experiment's collected results.
func (c *Client) Results(expID string) ([]probes.Result, error) {
	var out []probes.Result
	_, err := c.getPage("experiment_results", fmt.Sprintf("/api/v1/experiments/%s/results", expID), &out)
	return out, err
}

// ResultsPage fetches one page of an experiment's results: up to limit
// results after cursor ("" starts over). The returned cursor is "" on
// the last page.
func (c *Client) ResultsPage(expID string, limit int, cursor string) ([]probes.Result, string, error) {
	var out []probes.Result
	q := url.Values{}
	q.Set("limit", strconv.Itoa(limit))
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	next, err := c.getPage("experiment_results", fmt.Sprintf("/api/v1/experiments/%s/results?%s", expID, q.Encode()), &out)
	return out, next, err
}

// QueryMeta is the federation degradation annotation on query
// responses: Degraded true means the shards in ShardsMissing did not
// answer before their deadline and the data is correct but partial. A
// single (non-federated) controller never sets it.
type QueryMeta struct {
	Degraded      bool     `json:"degraded,omitempty"`
	ShardsMissing []string `json:"shards_missing,omitempty"`
}

// QueryAggregate runs a time-window aggregation (counts, loss rate, RTT
// percentiles, optionally grouped) over the controller's results store,
// with the federation degradation annotation that tells a complete
// answer from a partial one while a shard is down.
func (c *Client) QueryAggregate(f store.Filter, groupBy string) (store.AggReport, QueryMeta, error) {
	var out struct {
		store.AggReport
		QueryMeta
	}
	err := c.get("query", queryPath("aggregate", f, groupBy, 0, ""), &out)
	return out.AggReport, out.QueryMeta, err
}

// QueryFold fetches the aggregation before its report: the partial fold
// a coordinator merges with its other shards' (store.Folder.Merge).
func (c *Client) QueryFold(f store.Filter, groupBy string) (*store.Folder, error) {
	out := new(store.Folder)
	err := c.get("query", queryPath("fold", f, groupBy, 0, ""), out)
	return out, err
}

// QueryScan fetches one page of stored result records matching a filter,
// with the page's degradation annotation. Each record stays the bytes the
// server sent, so a coordinator merging its shards' pages passes them on
// as they came; only what a merge orders and deduplicates on (seq,
// experiment, task_id) is decoded out of it.
func (c *Client) QueryScan(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	var pg struct {
		Items      []json.RawMessage `json:"items"`
		NextCursor string            `json:"next_cursor"`
		QueryMeta
	}
	if err := c.get("query", queryPath("scan", f, "", limit, cursor), &pg); err != nil {
		return nil, "", QueryMeta{}, err
	}
	items := make([]store.Item, len(pg.Items))
	for i, raw := range pg.Items {
		var head struct {
			Seq        uint64 `json:"seq"`
			Experiment string `json:"experiment"`
			TaskID     string `json:"task_id"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, "", QueryMeta{}, fmt.Errorf("query: scan item %d: %w", i, err)
		}
		items[i] = store.Item{Seq: head.Seq, Key: store.DedupKey{Experiment: head.Experiment, TaskID: head.TaskID}, JSON: raw}
	}
	return items, pg.NextCursor, pg.QueryMeta, nil
}

// queryPath is the /api/v1/query URL of op over a filter, with the
// group_by, limit and cursor parameters that are set.
func queryPath(op string, f store.Filter, groupBy string, limit int, cursor string) string {
	q := f.Values()
	q.Set("op", op)
	if groupBy != "" {
		q.Set("group_by", groupBy)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	return "/api/v1/query?" + q.Encode()
}

// ShardInfo is one entry of a federation coordinator's shard map
// (GET /api/v1/shards): the shard id, its failover epoch (bumped every
// time the keyspace moves to a replacement backend), and its health as
// seen by the coordinator's tick-driven detector.
type ShardInfo struct {
	ID     string `json:"id"`
	Epoch  int    `json:"epoch"`
	Health string `json:"health"`
}

// ShardMap fetches a federation coordinator's shard map. A plain
// single-node controller answers 404 (not_found) — callers treat that
// as "not federated". Clients use the map to size retry patience: a
// suspect/dead owning shard means 503s are expected until failover.
func (c *Client) ShardMap() ([]ShardInfo, error) {
	var out []ShardInfo
	_, err := c.getPage("shards", "/api/v1/shards", &out)
	return out, err
}

// Probes lists the registered probes.
func (c *Client) Probes() ([]ProbeInfo, error) {
	var out []ProbeInfo
	_, err := c.getPage("probes_list", "/api/v1/probes", &out)
	return out, err
}

// Health fetches the controller's fleet-health summary.
func (c *Client) Health() (HealthReport, error) {
	var out HealthReport
	err := c.get("health", "/api/v1/health", &out)
	return out, err
}

// Stats fetches the controller's pipeline counters and probe statuses.
func (c *Client) Stats() (StatsReport, error) {
	var out StatsReport
	err := c.get("stats", "/api/v1/stats", &out)
	return out, err
}

// RunAgentOnce drains the probe's queue through the agent: DrainWithSync
// over an in-memory outbox, returning the number of tasks processed.
// Uploads ride the client's retry policy; because the controller
// deduplicates by task ID, a retried upload whose first delivery
// actually landed cannot double-count. If an upload still fails after
// retries the results go with the outbox and the leased tasks are
// abandoned — the controller requeues them at lease expiry.
func RunAgentOnce(cl *Client, agent Runner) (int, error) {
	return DrainWithSync(cl, agent, &MemSpool{}, 0)
}

// Runner is what a drain loop needs of a probe: its id, and a way to run
// leased tasks into a sink. *probes.Agent is the field probe's.
type Runner interface {
	ID() string
	RunTasks([]probes.Task, probes.ResultSink) (int, error)
}

// ResultSpool is the outbox contract DrainWithSync and FlushSpool need:
// results are kept (Append) before any upload is attempted, offered back
// oldest-first in frames (DrainBatch), and retired in bulk once delivered
// (AckBatch). internal/spool.Spool is the durable one; MemSpool holds
// the same results only as long as the process lives.
type ResultSpool interface {
	probes.ResultSink
	DrainBatch(max int) ([]probes.Result, uint64)
	AckBatch(upTo uint64) error
	Len() int
}

// MemSpool is the in-memory ResultSpool, for a probe with no spool
// directory: a held result survives a failed round, not a restart. The
// zero value is empty and ready; it is not safe for concurrent use.
type MemSpool struct {
	pending []probes.Result
	acked   uint64 // results retired so far: pending[0] is number acked+1
}

func (m *MemSpool) Append(r probes.Result) error {
	m.pending = append(m.pending, r)
	return nil
}

func (m *MemSpool) DrainBatch(max int) ([]probes.Result, uint64) {
	if max > len(m.pending) {
		max = len(m.pending)
	}
	return m.pending[:max], m.acked + uint64(max)
}

func (m *MemSpool) AckBatch(upTo uint64) error {
	if upTo > m.acked {
		m.pending = m.pending[upTo-m.acked:]
		m.acked = upTo
	}
	return nil
}

func (m *MemSpool) Len() int { return len(m.pending) }

// syncBatch is the most results one drain or flush round carries, and the
// most tasks a drain round asks to lease.
const syncBatch = 64

// FlushSpool delivers the spool's undelivered backlog in rounds that ask
// for no lease, up to syncBatch results each, acking each batch only
// after the controller accepted it. It returns the number of results
// delivered; on upload failure everything unacked simply stays spooled
// for the next flush — even across a probe restart. A batch that was delivered but whose response was lost is
// re-sent next flush; the controller dedups by (experiment, task), so
// the cost is bandwidth, never duplicated data.
func FlushSpool(cl *Client, probeID string, sp ResultSpool) (int, error) {
	total := 0
	for {
		rs, upTo := sp.DrainBatch(syncBatch)
		if len(rs) == 0 {
			return total, nil
		}
		if _, err := cl.Sync(SyncRequest{ProbeID: probeID, Results: rs, Max: -1}, 0); err != nil {
			return total, err
		}
		if err := sp.AckBatch(upTo); err != nil {
			return total, err
		}
		total += len(rs)
	}
}

// DrainWithSync is the probe's drain loop: each controller round-trip is
// one Sync call carrying the spool's next backlog frame (including
// anything left over from previous runs of this probe), doubling as the
// heartbeat, and asking for the next lease — so a full
// execute/deliver/lease round costs one request and, controller-side,
// one journal fsync. Results are spooled before upload and acked only
// after the controller accepted the batch, so a crash or failed round
// leaves everything undelivered safely in the spool: a probe killed at
// any point restarts, reopens a durable spool, and delivers exactly what
// it had completed, without re-running the measurements or waiting for
// lease expiry. wait > 0 long-polls on the final (empty-queue,
// empty-spool) round so new work is delivered the moment it is
// enqueued; while a backlog remains, rounds don't park. Returns the
// number of tasks executed this call.
func DrainWithSync(cl *Client, agent Runner, sp ResultSpool, wait time.Duration) (int, error) {
	total := 0
	for {
		rs, upTo := sp.DrainBatch(syncBatch)
		w := wait
		if len(rs) > 0 || sp.Len() > len(rs) {
			w = 0 // backlog to deliver: don't park
		}
		resp, err := cl.Sync(SyncRequest{ProbeID: agent.ID(), Results: rs, Max: syncBatch}, w)
		if err != nil {
			return total, err
		}
		if len(rs) > 0 {
			if err := sp.AckBatch(upTo); err != nil {
				return total, err
			}
		}
		if len(resp.Tasks) == 0 {
			if sp.Len() == 0 {
				return total, nil
			}
			continue // more spooled frames to deliver
		}
		n, err := agent.RunTasks(resp.Tasks, sp)
		total += n
		if err != nil {
			// ErrPowerOut or a spool write failure: whatever was sunk is
			// safe in the spool; deliver it (no lease ask) before
			// reporting the fault.
			if _, ferr := FlushSpool(cl, agent.ID(), sp); ferr != nil {
				return total, fmt.Errorf("%w (and flushing spool: %w)", err, ferr)
			}
			return total, err
		}
	}
}
