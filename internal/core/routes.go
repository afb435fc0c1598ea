package core

// routes.go is the v1 API surface and the one HTTP front end both tiers
// mount: a declarative, method-aware route table served by Router. The
// router is the one place that matches paths, enforces methods (405 +
// Allow), runs admission (429), applies the request body cap (413),
// assigns request ids, tags each request with the route name used by
// latency histograms and traces, and serves the metrics and debug_traces
// routes from the registry and ring it was built with. The routes both
// tiers serve are one table, sharedRoutes, whose handlers (http.go) are
// written once against Backend; a tier mounts it bound to its own
// backend (SharedRoutes) beside the one route only it has: probes_list on
// a controller, shards on a coordinator. The same tables self-describe
// the API: API.md is generated from them (cmd/apidoc), and the
// conformance tests walk them.

import (
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/afrinet/observatory/internal/obs"
)

// PathParams are the captured {name} segments of a matched route.
type PathParams map[string]string

// ParamDoc documents one query parameter for API.md.
type ParamDoc struct {
	Name string
	Doc  string
}

// RouteInfo is one endpoint's routing metadata and its self-description
// for the generated API reference and the conformance tests.
type RouteInfo struct {
	Name     string // histogram/trace tag, e.g. "probe_sync"
	Method   string
	Pattern  string // "/api/v1/experiments/{id}/results"
	Summary  string
	Query    []ParamDoc
	Request  string   // request body schema, "" = none
	Response string   // response body schema
	Errors   []string // error codes beyond the universal ones
	// Priority classes the route for admission control: high-priority
	// field traffic is shed last, low-priority analyst traffic first
	// (see admission.go).
	Priority RoutePriority
}

// Route is one entry of a tier's table: what the router needs to know
// about an endpoint, and the handler it dispatches to.
type Route struct {
	RouteInfo
	Handle func(http.ResponseWriter, *http.Request, PathParams)
}

// Page is the uniform list-response shape of the v1 API: every list
// endpoint returns {"items": [...], "next_cursor": "..."} (next_cursor
// omitted on the last page). QueryMeta is the federation degradation
// annotation; a controller leaves it zero, which encodes to nothing.
type Page struct {
	Items      interface{} `json:"items"`
	NextCursor string      `json:"next_cursor,omitempty"`
	QueryMeta
}

// sharedRoutes is the v1 surface both tiers serve, each route with the
// handler that serves it from a tier's Backend. Order is the order API.md
// documents them in.
var sharedRoutes = []struct {
	RouteInfo
	handle func(api, http.ResponseWriter, *http.Request, PathParams)
}{
	{RouteInfo{
		Name: "probe_register", Method: http.MethodPost, Pattern: "/api/v1/probes/register",
		Summary:  "Register (or update) a vantage point. Registration counts as probe contact.",
		Request:  "ProbeInfo {id, asn, country, has_wired, kind}",
		Response: `{"id": "<probe id>"}`,
		Errors:   []string{ErrCodeBadRequest, ErrCodeBodyTooLarge},
		Priority: PriorityHigh,
	}, api.handleRegister},
	{RouteInfo{
		Name: "probe_sync", Method: http.MethodPost, Pattern: "/api/v1/probes/sync",
		Summary: "The probe protocol — one batched round-trip: heartbeat + spooled result upload + task-lease ask in one request, covered by a single journal append/fsync. A round with no results and max < 0 is a bare heartbeat.",
		Query: []ParamDoc{
			{Name: "wait", Doc: "long-poll duration (e.g. 5s, capped at 30s): with no tasks to grant, the call parks until tasks are enqueued for the probe or the deadline passes. Omitted or 0 answers immediately. Federation coordinators answer immediately regardless — parking belongs to the shard owning the probe's queue"},
		},
		Request:  `SyncRequest {probe_id, results?: [Result], max?: 0 = server default of 32, < 0 = no lease}`,
		Response: `SyncResponse {"accepted": n, "received": m, "tasks": [Task]} — accepted < received on retried uploads is dedup, not an error`,
		Errors:   []string{ErrCodeBadRequest, ErrCodeNotFound, ErrCodeBodyTooLarge},
		Priority: PriorityHigh,
	}, api.handleProbeSync},
	{RouteInfo{
		Name: "experiment_submit", Method: http.MethodPost, Pattern: "/api/v1/experiments",
		Summary:  "Submit an experiment for vetting. Idempotent per request_id; trusted owners are auto-approved.",
		Request:  `{"request_id"?, "id"?, "owner", "description", "assignments": [Assignment]} — id pins the experiment id (1-128 bytes of [A-Za-z0-9._:-]; what a federation coordinator sends its shards, and ignores itself); omitted mints exp-NNNN`,
		Response: "Experiment",
		Errors:   []string{ErrCodeBadRequest, ErrCodeBodyTooLarge},
		Priority: PriorityHigh,
	}, api.handleSubmit},
	{RouteInfo{
		Name: "experiment_get", Method: http.MethodGet, Pattern: "/api/v1/experiments/{id}",
		Summary:  "Fetch one experiment's vetting status and assignments.",
		Response: "Experiment",
		Errors:   []string{ErrCodeNotFound},
		Priority: PriorityLow,
	}, api.handleExperimentGet},
	{RouteInfo{
		Name: "experiment_approve", Method: http.MethodPost, Pattern: "/api/v1/experiments/{id}/approve",
		Summary:  "Approve a pending experiment and schedule its tasks. Idempotent.",
		Response: `{"status": "approved"}`,
		Errors:   []string{ErrCodeBadRequest, ErrCodeNotFound},
		Priority: PriorityHigh,
	}, api.handleExperimentApprove},
	{RouteInfo{
		Name: "experiment_reject", Method: http.MethodPost, Pattern: "/api/v1/experiments/{id}/reject",
		Summary:  "Reject a pending experiment: none of its tasks is scheduled. Idempotent; an approved experiment cannot be rejected.",
		Response: `{"status": "rejected"}`,
		Errors:   []string{ErrCodeBadRequest, ErrCodeNotFound},
		Priority: PriorityHigh,
	}, api.handleExperimentReject},
	{RouteInfo{
		Name: "experiment_results", Method: http.MethodGet, Pattern: "/api/v1/experiments/{id}/results",
		Summary: "Page through one experiment's collected results.",
		Query: []ParamDoc{
			{Name: "limit", Doc: "page size; 0 or omitted returns everything"},
			{Name: "cursor", Doc: "opaque position from the previous page's next_cursor"},
		},
		Response: "page of Result",
		Errors:   []string{ErrCodeBadRequest, ErrCodeNotFound},
		Priority: PriorityLow,
	}, api.handleExperimentResults},
	{RouteInfo{
		Name: "query", Method: http.MethodGet, Pattern: "/api/v1/query",
		Summary:  "Query the results store: filtered scans, time-window aggregations, and the mergeable partial aggregation a coordinator asks its shards for.",
		Query:    queryParamDocs(),
		Response: `op=aggregate: AggReport; op=scan: page of Record; op=fold: Folder {group_by, matched, groups: [{<group key fields>, count, ok, verdicts, rtts}]} — the aggregate before its report, with raw RTT samples in place of derived statistics, which a coordinator merges across shards exactly. Served by a federation coordinator, each carries "degraded": true plus "shards_missing": [shard ids] when shards timed out or were down — the data is correct but partial, never silently wrong`,
		Errors:   []string{ErrCodeBadRequest},
		Priority: PriorityLow,
	}, api.handleQuery},
	{RouteInfo{
		Name: "health", Method: http.MethodGet, Pattern: "/api/v1/health",
		Summary:  "Fleet-health summary: probe liveness counts, queue and lease depth.",
		Response: "HealthReport",
		Priority: PriorityHigh,
	}, api.handleHealth},
	{RouteInfo{
		Name: "stats", Method: http.MethodGet, Pattern: "/api/v1/stats",
		Summary:  "Pipeline, durability, and store counters plus per-probe status.",
		Response: "StatsReport",
		Priority: PriorityLow,
	}, api.handleStats},
}

// probesListRoute is the one route only a controller serves.
var probesListRoute = RouteInfo{
	Name: "probes_list", Method: http.MethodGet, Pattern: "/api/v1/probes",
	Summary:  "List registered probes sorted by id.",
	Response: "page of ProbeInfo",
	Priority: PriorityLow,
}

// The routes every Router serves itself, after its table's own: they
// read the registry and trace ring the router writes.
var (
	debugTracesRoute = RouteInfo{
		Name: "debug_traces", Method: http.MethodGet, Pattern: "/api/v1/debug/traces",
		Summary: "The slowest recent requests as span trees (handler → mutator → journal fsync / store append).",
		Query: []ParamDoc{
			{Name: "slowest", Doc: "how many traces to return, default 10"},
		},
		Response: "page of TraceView",
		Errors:   []string{ErrCodeBadRequest},
		Priority: PriorityLow,
	}
	metricsRoute = RouteInfo{
		Name: "metrics", Method: http.MethodGet, Pattern: "/metrics",
		Summary:  "Prometheus text exposition: route/mutator/store latency histograms and event counters, deterministically ordered.",
		Response: "Prometheus text format 0.0.4",
		Priority: PriorityHigh,
	}
)

// RouterRoutes describes the routes every Router serves itself.
func RouterRoutes() []RouteInfo { return []RouteInfo{debugTracesRoute, metricsRoute} }

// SharedRouteInfos describes the routes both tiers serve.
func SharedRouteInfos() []RouteInfo {
	out := make([]RouteInfo, len(sharedRoutes))
	for i, rt := range sharedRoutes {
		out[i] = rt.RouteInfo
	}
	return out
}

// SharedRoutes binds the routes both tiers serve to one tier: the
// backend their handlers call, the tier's mapping of a backend error
// onto the error envelope, and the registry its router counts into.
func SharedRoutes(b Backend, writeErr func(http.ResponseWriter, error), reg *obs.Registry) []Route {
	reflected := reg.Counters(MetricBodyReflected)
	out := make([]Route, len(sharedRoutes))
	for i, rt := range sharedRoutes {
		a := api{b, writeErr, reflected, rt.Name}
		out[i] = Route{rt.RouteInfo, func(w http.ResponseWriter, r *http.Request, p PathParams) {
			rt.handle(a, w, r, p)
		}}
	}
	return out
}

// APIRoutes returns the self-description of the controller's full v1
// surface in documentation order.
func APIRoutes() []RouteInfo {
	return append(append(SharedRouteInfos(), probesListRoute), RouterRoutes()...)
}

// compiledRoute is a table entry plus its pre-split pattern and the
// pre-created latency histogram series.
type compiledRoute struct {
	Route
	segs []string
	hist *obs.Histogram
}

// Router matches requests against a route table and wraps every handler
// with the shared front-end middleware: request ids, admission, body
// caps, per-route latency histograms, span traces, and slow-request
// logging.
type Router struct {
	routes []*compiledRoute
	gate   *AdmissionGate
	reg    *obs.Registry
	ring   *obs.TraceRing
}

// MetricUnencodable counts, per route (name=<route name>), the responses
// answered 500 unencodable (WriteJSON).
const MetricUnencodable = "obs_http_unencodable_total"

// slowRequest is the threshold above which a request emits one
// structured slow-request log line.
const slowRequest = 500 * time.Millisecond

// DefaultTraceRing is how many finished request traces a tier retains
// for /api/v1/debug/traces.
const DefaultTraceRing = 256

// NewRouter serves the table plus the router-owned routes. Requests are
// admitted through gate, per-route latency lands in reg's
// obs_http_request_seconds histogram, every request leaves a span tree
// in ring, and one taking slowRequest or longer is logged.
func NewRouter(table []Route, gate *AdmissionGate, reg *obs.Registry, ring *obs.TraceRing) *Router {
	rt := &Router{gate: gate, reg: reg, ring: ring}
	add := func(def Route) {
		rt.routes = append(rt.routes, &compiledRoute{
			Route: def,
			segs:  strings.Split(strings.TrimPrefix(def.Pattern, "/"), "/"),
			hist:  reg.Hist(MetricHTTP, "route", def.Name),
		})
	}
	for _, def := range table {
		add(def)
	}
	add(Route{debugTracesRoute, rt.handleDebugTraces})
	add(Route{metricsRoute, rt.handleMetrics})
	return rt
}

// Handler exposes the controller's v1 API (see API.md, generated from
// the route tables). Every response carries X-Request-ID; non-2xx
// responses share the {"error": {code, message, request_id}} envelope;
// list responses share the {items, next_cursor} page shape; request
// bodies are bounded at MaxBodyBytes (413 beyond). Per-route latency
// lands in the obs_http_request_seconds histogram (GET /metrics) and
// every request leaves a span tree in the trace ring
// (GET /api/v1/debug/traces).
func (c *Controller) Handler() http.Handler {
	table := append(SharedRoutes(c.Backend(), writeControllerErr, c.reg), Route{probesListRoute, c.handleProbes})
	return NewRouter(table, c.adm, c.reg, c.ring)
}

// match finds the route for (method, path). When only the method
// mismatches it returns the set of allowed methods for the 405.
func (rt *Router) match(method, path string) (*compiledRoute, PathParams, []string) {
	// Only the leading slash is trimmed: a trailing slash is a real
	// (empty) segment, so "/api/v1/experiments/" falls through to 404
	// rather than matching the collection route.
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	var allowed []string
	for _, cr := range rt.routes {
		params, ok := matchSegs(cr.segs, segs)
		if !ok {
			continue
		}
		if cr.Method == method {
			return cr, params, nil
		}
		allowed = append(allowed, cr.Method)
	}
	sort.Strings(allowed)
	return nil, nil, allowed
}

// matchSegs matches concrete path segments against a pattern; {name}
// captures any non-empty segment.
func matchSegs(pattern, segs []string) (PathParams, bool) {
	if len(pattern) != len(segs) {
		return nil, false
	}
	var params PathParams
	for i, p := range pattern {
		if strings.HasPrefix(p, "{") && strings.HasSuffix(p, "}") {
			if segs[i] == "" {
				return nil, false
			}
			if params == nil {
				params = make(PathParams, 2)
			}
			params[p[1:len(p)-1]] = segs[i]
			continue
		}
		if p != segs[i] {
			return nil, false
		}
	}
	return params, true
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := ensureRequestID(w, r)
	cr, params, allowed := rt.match(r.Method, r.URL.Path)
	if cr == nil {
		if len(allowed) > 0 {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			WriteAPIError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
				errMethod(allowed))
			return
		}
		WriteAPIError(w, http.StatusNotFound, ErrCodeNotFound, errNotFound)
		return
	}
	// Admission runs after the route is known (shedding is per-route and
	// per-priority) but before any trace or body work is spent on a
	// request the tier will refuse.
	release, ok := rt.gate.Admit(cr.Name, cr.Priority)
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(rt.gate.RetryAfterSeconds()))
		WriteAPIError(w, http.StatusTooManyRequests, ErrCodeRateLimited, errRateLimited(cr.Name))
		return
	}
	defer release()
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	}
	tr := obs.NewTrace(reqID, cr.Name, r.Method)
	r = r.WithContext(obs.WithSpan(r.Context(), tr.Root()))
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

	cr.Handle(rec, r, params)

	if rec.status == http.StatusInternalServerError { // only WriteJSON's encode failure answers 500
		rt.reg.Counters(MetricUnencodable).Inc(cr.Name)
	}
	view, dur := tr.Finish(rec.status)
	cr.hist.Observe(dur)
	rt.ring.Add(view)
	if dur >= slowRequest {
		log.Printf("obs: slow request route=%s method=%s status=%d dur=%s request_id=%s",
			cr.Name, r.Method, rec.status, dur.Round(time.Microsecond), reqID)
	}
}

// handleDebugTraces serves the slowest recent request traces from the
// router's trace ring.
func (rt *Router) handleDebugTraces(w http.ResponseWriter, r *http.Request, _ PathParams) {
	n, ok := parseCount(w, "slowest", r.URL.Query().Get("slowest"), 10)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, Page{Items: rt.ring.Slowest(n)})
}

// handleMetrics serves the Prometheus text exposition. It writes text
// (not JSON) with an implicit 200; it is the one non-envelope response
// in the API.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request, _ PathParams) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WritePrometheus(w)
}
