package core

// http.go holds the route handlers behind the v1 route table in
// routes.go. Method enforcement, body caps, request ids, tracing, and
// latency histograms all live in the router; handlers only parse,
// call the controller, and render through envelope.go.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/afrinet/observatory/internal/probes"
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

// NotReady closes the gate again (a restart in progress).
func (g *RecoveryGate) NotReady() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.h = nil
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

// MaxBodyBytes bounds every JSON request body; anything larger is
// rejected with 413 before it can balloon controller memory. The router
// applies the cap; DecodeBody translates the overflow.
const MaxBodyBytes = 8 << 20 // 8 MiB

// DecodeBody decodes the (router-bounded) JSON request body into v,
// writing the error envelope (413 for oversized bodies, 400 otherwise)
// itself. Returns false when the handler should stop.
func DecodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
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

// ParseCount parses the non-negative integer query parameter name from
// its raw value s ("" means def). Writes the 400 itself; the second
// return is false when the handler should stop.
func ParseCount(w http.ResponseWriter, name, s string, def int) (int, bool) {
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

// ParseLeaseMax parses the tasks route's ?max=: absent or 0 asks for the
// server default lease.
func ParseLeaseMax(w http.ResponseWriter, r *http.Request) (int, bool) {
	n, ok := ParseCount(w, "max", r.URL.Query().Get("max"), 0)
	return resolveSyncMax(n), ok
}

func (c *Controller) handleRegister(w http.ResponseWriter, r *http.Request, _ PathParams) {
	var p ProbeInfo
	if !DecodeBody(w, r, &p) {
		return
	}
	if err := c.registerProbeCtx(r.Context(), p); err != nil {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"id": p.ID})
}

func (c *Controller) handleProbes(w http.ResponseWriter, r *http.Request, _ PathParams) {
	items := c.Probes()
	if items == nil {
		items = []ProbeInfo{}
	}
	WriteJSON(w, http.StatusOK, Page{Items: items})
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
	// mints the usual exp-%04d id. A coordinator's own front end ignores
	// it: federated ids are coordinator-minted.
	ID string `json:"id,omitempty"`
}

func (c *Controller) handleSubmit(w http.ResponseWriter, r *http.Request, _ PathParams) {
	var req SubmitRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.ID) > 128 {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("experiment id longer than 128 bytes"))
		return
	}
	exp, err := c.submitExperimentIdemCtx(r.Context(), req.RequestID, req.ID, req.Owner, req.Description, req.Assignments)
	if err != nil {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, exp)
}

func (c *Controller) handleExperimentGet(w http.ResponseWriter, r *http.Request, p PathParams) {
	exp, ok := c.Experiment(p["id"])
	if !ok {
		WriteAPIError(w, http.StatusNotFound, ErrCodeNotFound,
			fmt.Errorf("unknown experiment %s", p["id"]))
		return
	}
	WriteJSON(w, http.StatusOK, exp)
}

func (c *Controller) handleExperimentApprove(w http.ResponseWriter, r *http.Request, p PathParams) {
	if err := c.approveCtx(r.Context(), p["id"]); err != nil {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": string(StatusApproved)})
}

func (c *Controller) handleExperimentResults(w http.ResponseWriter, r *http.Request, p PathParams) {
	q := r.URL.Query()
	limit, ok := ParseCount(w, "limit", q.Get("limit"), 0)
	if !ok {
		return
	}
	c.mu.Lock()
	_, known := c.experiments[p["id"]]
	c.mu.Unlock()
	if !known { // as the coordinator answers: 404, not an empty page
		WriteAPIError(w, http.StatusNotFound, ErrCodeNotFound,
			fmt.Errorf("unknown experiment %s", p["id"]))
		return
	}
	rs, next, err := c.ResultsPage(p["id"], limit, q.Get("cursor"))
	if err != nil {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	if rs == nil {
		rs = []probes.Result{}
	}
	WriteJSON(w, http.StatusOK, Page{Items: rs, NextCursor: next})
}

func (c *Controller) handleHealth(w http.ResponseWriter, r *http.Request, _ PathParams) {
	WriteJSON(w, http.StatusOK, c.Health())
}

func (c *Controller) handleStats(w http.ResponseWriter, r *http.Request, _ PathParams) {
	WriteJSON(w, http.StatusOK, c.Stats())
}
