package core

// http.go is the v1 surface written once: Backend states the API as Go
// calls, and the handlers below — one per route of sharedRoutes
// (routes.go) — parse a request, make that call and render the answer
// through envelope.go. A tier supplies its Backend and how its errors
// map onto the envelope; method enforcement, body caps, request ids,
// tracing and latency histograms live in the router.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// RecoveryGate fronts the controller's handler while recovery runs:
// until Ready is called every request is answered 503 Service
// Unavailable (code "unavailable") with a Retry-After header, which the
// probe client treats as transient and retries through. cmd/obsd binds
// its listener immediately and flips the gate once Recover returns, so
// probes reconnecting after a controller restart see a brief 503 window
// rather than connection refusals.
type RecoveryGate struct {
	mu sync.RWMutex
	h  http.Handler
}

// NewRecoveryGate returns a gate in the not-ready (503) state.
func NewRecoveryGate() *RecoveryGate { return &RecoveryGate{} }

// Ready installs the recovered controller's handler and opens the gate.
func (g *RecoveryGate) Ready(h http.Handler) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.h = h
}

func (g *RecoveryGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	h := g.h
	g.mu.RUnlock()
	if h == nil {
		ensureRequestID(w, r)
		w.Header().Set("Retry-After", "1")
		WriteAPIError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("controller recovering, retry shortly"))
		return
	}
	h.ServeHTTP(w, r)
}

var errNotFound = errors.New("not found")

func errMethod(allowed []string) error {
	return fmt.Errorf("method not allowed (allowed: %s)", strings.Join(allowed, ", "))
}

// Backend is the v1 API as Go calls, its only Go statement: what the
// shared handlers need of the tier behind them, and what a federation
// coordinator calls on each of its shards. A controller satisfies it
// through controllerBackend (Controller.Backend), a coordinator and a
// remote shard (federation.HTTPShard) directly. The calls that journal
// or park take the request's context (its trace span, and the client's
// disconnect for a long-poll); reads take none. The QueryMeta of a read
// is the coordinator's degradation note; a controller leaves it zero,
// which encodes to nothing.
type Backend interface {
	Register(ctx context.Context, p ProbeInfo) error
	// Sync runs one probe round. wait > 0 asks a backend that owns the
	// probe's queue to park an empty-handed lease ask for up to that long.
	Sync(ctx context.Context, req SyncRequest, wait time.Duration) (SyncResponse, error)
	Submit(ctx context.Context, req SubmitRequest) (*Experiment, error)
	Approve(ctx context.Context, expID string) error
	// Reject refuses a pending experiment; an approved one stays approved
	// and answers an error.
	Reject(ctx context.Context, expID string) error
	// Experiment and ExperimentResults answer an id the tier never
	// created with ErrUnknownExperiment.
	Experiment(expID string) (*Experiment, error)
	ExperimentResults(expID string, limit int, cursor string) ([]probes.Result, string, QueryMeta, error)
	ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error)
	// Fold is an aggregation before its report: the mergeable partial a
	// coordinator asks each shard for (store.Folder), and what the query
	// handler reports for op=aggregate.
	Fold(q store.AggQuery) (*store.Folder, QueryMeta, error)
	// Tick advances the tier's logical clock by n (lease expiry, probe
	// liveness, admission refill): a controller ticks itself, a
	// coordinator its shards, and a remote tier, which runs its own tick
	// loop, nothing.
	Tick(n int)
	// Health and Stats fail only for a tier that cannot answer (a remote
	// one). Stats is the tier's own report: a StatsReport, or a
	// coordinator's counters over its shards' reports.
	Health() (HealthReport, error)
	Stats() (any, error)
}

// api binds the shared handlers to one tier and one route: the backend
// they call, the tier's mapping of a backend error onto the error
// envelope, and the route's count of bodies read by reflection.
type api struct {
	b         Backend
	writeErr  func(http.ResponseWriter, error)
	reflected *obs.Family
	route     string
}

// reply writes a backend call's answer: v as a 200 (an experiment
// through writeExperiment), or err through the tier's mapping.
func (a api) reply(w http.ResponseWriter, v any, err error) {
	switch exp, isExp := v.(*Experiment); {
	case err != nil:
		a.writeErr(w, err)
	case isExp && exp != nil:
		writeExperiment(w, exp)
	default:
		WriteJSON(w, http.StatusOK, v)
	}
}

// MaxBodyBytes bounds every JSON request body; anything larger is
// rejected with 413 before it can balloon controller memory. The router
// applies the cap; decodeBody translates the overflow.
const MaxBodyBytes = 8 << 20 // 8 MiB

// MetricBodyReflected counts, per route (name=<route name>), the request
// bodies its cut declined to json.Unmarshal.
const MetricBodyReflected = "obs_http_body_reflected_total"

// decodeBody reads the (router-capped) request body whole, then decodes
// it into v through cutOr: the route's cut (nil for none), or
// json.Unmarshal, which holds the body to one JSON value. A decline of
// the cut is counted in MetricBodyReflected. It writes the error envelope
// itself (413 for a body over the cap, 400 otherwise) and returns false
// when the handler should stop.
func decodeBody[T any](a api, w http.ResponseWriter, r *http.Request, v *T, cut func([]byte) (T, bool)) bool {
	// Sized from Content-Length, with room for the read that finds EOF.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), MaxBodyBytes)+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		var reflected bool
		if reflected, err = cutOr(buf.Bytes(), v, cut); reflected && cut != nil {
			a.reflected.Inc(a.route)
		}
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			WriteAPIError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return false
	}
	return true
}

// parseCount parses the non-negative integer query parameter name from
// its raw value s ("" means def). Writes the 400 itself; the second
// return is false when the handler should stop.
func parseCount(w http.ResponseWriter, name, s string, def int) (int, bool) {
	if s == "" {
		return def, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("%s must be a non-negative integer, got %q", name, s))
		return 0, false
	}
	return n, true
}

func (a api) handleRegister(w http.ResponseWriter, r *http.Request, _ PathParams) {
	var p ProbeInfo
	if !decodeBody(a, w, r, &p, cutProbeInfo) {
		return
	}
	if err := a.b.Register(r.Context(), p); err != nil {
		a.writeErr(w, err)
		return
	}
	writeOK(w, append(journal.AppendString([]byte(`{"id":`), p.ID), "}\n"...))
}

// handleProbeSync serves the probe protocol: the body is one round, and
// ?wait= (a non-negative duration, capped at MaxSyncWait) its long-poll.
func (a api) handleProbeSync(w http.ResponseWriter, r *http.Request, _ PathParams) {
	var req SyncRequest
	if !decodeBody(a, w, r, &req, nil) {
		return
	}
	if req.ProbeID == "" {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("probe_id required"))
		return
	}
	var wait time.Duration
	if s := r.URL.Query().Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Errorf("wait must be a non-negative duration, got %q", s))
			return
		}
		wait = min(d, MaxSyncWait)
	}
	resp, err := a.b.Sync(r.Context(), req, wait)
	a.reply(w, resp, err)
}

// SubmitRequest is the experiment submission body. RequestID, when set,
// makes the submission idempotent: the controller remembers which
// experiment each request id created and returns it again on redelivery,
// so clients retry submissions as freely as uploads.
type SubmitRequest struct {
	RequestID   string              `json:"request_id,omitempty"`
	Owner       string              `json:"owner"`
	Description string              `json:"description"`
	Assignments []probes.Assignment `json:"assignments"`
	// ID optionally pins the experiment id (federation coordinators
	// submitting per-shard slices of one federated experiment); empty
	// mints the usual exp-%04d id. A coordinator ignores it: federated
	// ids are coordinator-minted.
	ID string `json:"id,omitempty"`
}

// experimentIDChars is what a pinned experiment id may hold: the id
// becomes a path segment of /experiments/{id} and the prefix of a lease
// key (experiment + "/" + task), so it must not carry a '/', and is held
// to 1–128 bytes of these.
const experimentIDChars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._:-"

func (a api) handleSubmit(w http.ResponseWriter, r *http.Request, _ PathParams) {
	var req SubmitRequest
	if !decodeBody(a, w, r, &req, cutSubmitRequest) {
		return
	}
	if len(req.ID) > 128 || strings.Trim(req.ID, experimentIDChars) != "" {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("experiment id must be 1-128 bytes of [A-Za-z0-9._:-]"))
		return
	}
	exp, err := a.b.Submit(r.Context(), req)
	a.reply(w, exp, err)
}

func (a api) handleExperimentGet(w http.ResponseWriter, r *http.Request, p PathParams) {
	exp, err := a.b.Experiment(p["id"])
	a.reply(w, exp, err)
}

func (a api) handleExperimentApprove(w http.ResponseWriter, r *http.Request, p PathParams) {
	a.reply(w, map[string]string{"status": string(StatusApproved)}, a.b.Approve(r.Context(), p["id"]))
}

func (a api) handleExperimentReject(w http.ResponseWriter, r *http.Request, p PathParams) {
	a.reply(w, map[string]string{"status": string(StatusRejected)}, a.b.Reject(r.Context(), p["id"]))
}

func (a api) handleExperimentResults(w http.ResponseWriter, r *http.Request, p PathParams) {
	q := r.URL.Query()
	limit, ok := parseCount(w, "limit", q.Get("limit"), 0)
	if !ok {
		return
	}
	rs, next, meta, err := a.b.ExperimentResults(p["id"], limit, q.Get("cursor"))
	if err != nil {
		a.writeErr(w, err)
		return
	}
	if rs == nil {
		rs = []probes.Result{}
	}
	WriteJSON(w, http.StatusOK, Page{Items: rs, NextCursor: next, QueryMeta: meta})
}

func (a api) handleHealth(w http.ResponseWriter, r *http.Request, _ PathParams) {
	h, err := a.b.Health()
	a.reply(w, h, err)
}

func (a api) handleStats(w http.ResponseWriter, r *http.Request, _ PathParams) {
	st, err := a.b.Stats()
	a.reply(w, st, err)
}

// controllerBackend is a Controller as a Backend: one journal, one
// store, nothing to degrade around.
type controllerBackend struct{ c *Controller }

// Backend is the controller as a core.Backend: what its Handler serves,
// and what a coordinator calls on it as a local shard.
func (c *Controller) Backend() Backend { return controllerBackend{c} }

func (b controllerBackend) Register(ctx context.Context, p ProbeInfo) error {
	return b.c.registerProbeCtx(ctx, p)
}

// Sync long-polls here: a controller owns the queue a probe parks on.
func (b controllerBackend) Sync(ctx context.Context, req SyncRequest, wait time.Duration) (SyncResponse, error) {
	resp, err := b.c.syncCtx(ctx, req.ProbeID, req.Results, req.Max)
	if err == nil && wait > 0 && req.Max >= 0 && len(resp.Tasks) == 0 {
		if tasks := b.c.waitForTasks(ctx, req.ProbeID, resolveSyncMax(req.Max), wait); tasks != nil {
			resp.Tasks = tasks
		}
	}
	return resp, err
}

func (b controllerBackend) Submit(ctx context.Context, req SubmitRequest) (*Experiment, error) {
	return b.c.submitExperimentIdemCtx(ctx, req.RequestID, req.ID, req.Owner, req.Description, req.Assignments)
}

func (b controllerBackend) Approve(ctx context.Context, expID string) error {
	return b.c.approve(ctx, expID)
}

func (b controllerBackend) Reject(ctx context.Context, expID string) error {
	return b.c.reject(ctx, expID)
}

func (b controllerBackend) Experiment(expID string) (*Experiment, error) {
	exp, ok := b.c.Experiment(expID)
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownExperiment, expID)
	}
	return exp, nil
}

func (b controllerBackend) ExperimentResults(expID string, limit int, cursor string) ([]probes.Result, string, QueryMeta, error) {
	b.c.mu.Lock()
	_, known := b.c.experiments[expID]
	b.c.mu.Unlock()
	if !known { // not an empty page: the store cannot tell an unknown id from an idle one
		return nil, "", QueryMeta{}, fmt.Errorf("%w %s", ErrUnknownExperiment, expID)
	}
	rs, next, err := b.c.ResultsPage(expID, limit, cursor)
	return rs, next, QueryMeta{}, err
}

func (b controllerBackend) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	items, next, err := b.c.ScanItems(f, limit, cursor)
	return items, next, QueryMeta{}, err
}

func (b controllerBackend) Fold(q store.AggQuery) (*store.Folder, QueryMeta, error) {
	fold, err := b.c.store.Fold(q)
	return fold, QueryMeta{}, err
}

func (b controllerBackend) Tick(n int)                    { b.c.Tick(n) }
func (b controllerBackend) Health() (HealthReport, error) { return b.c.Health(), nil }
func (b controllerBackend) Stats() (any, error)           { return b.c.Stats(), nil }

// writeControllerErr is a controller's error mapping: an unknown probe
// or experiment is 404, anything else the controller refusing the
// request (400) — unless it is a StorageFault, which WriteAPIError
// answers 503.
func writeControllerErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnknownProbe) || errors.Is(err, ErrUnknownExperiment) {
		WriteAPIError(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
}

// handleProbes serves probes_list, the one route only a controller has.
func (c *Controller) handleProbes(w http.ResponseWriter, r *http.Request, _ PathParams) {
	WriteJSON(w, http.StatusOK, Page{Items: c.Probes()}) // never nil: an empty fleet lists as []
}
