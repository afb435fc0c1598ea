package federation

// http.go is the coordinator's front end: a route table and its
// handlers, mounted on the router a controller mounts (core.NewRouter),
// written with internal/core's envelope writers and request parsers — so
// probes and analysts cannot tell a coordinator from a controller until
// a shard dies, when they see 503 shard_unavailable on that shard's keys
// and degraded-but-correct partial query results instead of a dead
// platform.

import (
	"net/http"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// coordRoutes is the coordinator's route table, in documentation order.
// An entry names a route of the controller's table and inherits its
// method, pattern, docs and admission priority; shards is the one route
// only this tier has.
var coordRoutes = []struct {
	name   string
	handle func(*Coordinator, http.ResponseWriter, *http.Request, core.PathParams)
}{
	{"probe_register", (*Coordinator).handleRegister},
	{"probe_tasks", (*Coordinator).handleProbeTasks},
	{"probe_results", (*Coordinator).handleProbeResults},
	{"probe_heartbeat", (*Coordinator).handleProbeHeartbeat},
	{"probe_sync", (*Coordinator).handleProbeSync},
	{"experiment_submit", (*Coordinator).handleSubmit},
	{"experiment_get", (*Coordinator).handleExperimentGet},
	{"experiment_approve", (*Coordinator).handleExperimentApprove},
	{"experiment_results", (*Coordinator).handleExperimentResults},
	{"query", (*Coordinator).handleQuery},
	{"health", (*Coordinator).handleHealth},
	{"stats", (*Coordinator).handleStats},
	{"shards", (*Coordinator).handleShards},
}

var shardsRoute = core.RouteInfo{
	Name: "shards", Method: http.MethodGet, Pattern: "/api/v1/shards",
	Summary:  "The coordinator's shard map: each shard's id, failover epoch (bumped whenever its keyspace moves to a replacement backend) and health as seen by the tick-driven detector. A suspect or dead owning shard means 503s on its keys until failover.",
	Response: "page of ShardInfo {id, epoch, health}",
	Priority: core.PriorityLow,
}

// APIRoutes returns the self-description of the coordinator's full v1
// surface: its table, then the routes the router serves itself.
func APIRoutes() []core.RouteInfo {
	byName := map[string]core.RouteInfo{shardsRoute.Name: shardsRoute}
	for _, info := range core.APIRoutes() {
		byName[info.Name] = info
	}
	out := make([]core.RouteInfo, 0, len(coordRoutes))
	for _, rt := range coordRoutes {
		info, ok := byName[rt.name]
		if !ok {
			panic("federation: route " + rt.name + " is not in the controller's table")
		}
		out = append(out, info)
	}
	return append(out, core.RouterRoutes()...)
}

// Handler serves the coordinator's v1 surface through the shared router;
// admission runs through the coordinator's own gate (refilled by Tick).
func (c *Coordinator) Handler() http.Handler {
	infos := APIRoutes()
	table := make([]core.Route, 0, len(coordRoutes))
	for i, rt := range coordRoutes {
		table = append(table, core.Route{RouteInfo: infos[i], Handle: func(w http.ResponseWriter, r *http.Request, p core.PathParams) {
			rt.handle(c, w, r, p)
		}})
	}
	return core.NewRouter(table, c.gate, c.reg, c.traces, core.DefaultSlowRequest)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	var p core.ProbeInfo
	if !core.DecodeBody(w, r, &p) {
		return
	}
	if err := c.Register(p); err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]string{"id": p.ID})
}

func (c *Coordinator) handleProbeTasks(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	max, ok := core.ParseLeaseMax(w, r)
	if !ok {
		return
	}
	tasks, err := c.LeaseTasks(p["id"], max)
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, tasks)
}

func (c *Coordinator) handleProbeResults(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	var rs []probes.Result
	if !core.DecodeBody(w, r, &rs) {
		return
	}
	accepted, err := c.SubmitResults(p["id"], rs)
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "received": len(rs)})
}

func (c *Coordinator) handleProbeHeartbeat(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	if err := c.Heartbeat(p["id"]); err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleProbeSync serves the probe protocol through the shard tier.
// The ?wait= long-poll parameter is parsed as a controller parses it but
// not forwarded: parking belongs to the queue-owning shard, and the
// coordinator's per-shard deadline (QueryDeadline, ~2s) would cut a 30s
// park short — so a coordinator answers immediately and the probe's
// wait loop becomes a paced retry. A shard-layer failure is 503 +
// Retry-After: the probe's spool, which acks only on success, keeps the batch.
func (c *Coordinator) handleProbeSync(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	req, _, ok := core.ParseSyncRequest(w, r)
	if !ok {
		return
	}
	resp, err := c.Sync(req)
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	var req core.SubmitRequest
	if !core.DecodeBody(w, r, &req) {
		return
	}
	exp, err := c.Submit(req.RequestID, req.Owner, req.Description, req.Assignments)
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, exp)
}

func (c *Coordinator) handleExperimentGet(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	exp, err := c.Experiment(p["id"])
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, exp)
}

func (c *Coordinator) handleExperimentApprove(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	if err := c.Approve(p["id"]); err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]string{"status": string(core.StatusApproved)})
}

func (c *Coordinator) handleExperimentResults(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	q := r.URL.Query()
	limit, ok := core.ParseCount(w, "limit", q.Get("limit"), 0)
	if !ok {
		return
	}
	if _, _, err := c.experimentTargets(p["id"]); err != nil { // unknown id: 404, not an empty page
		c.writeShardErr(w, err)
		return
	}
	recs, next, meta, err := c.ScanPage(store.Filter{Experiment: p["id"]}, limit, q.Get("cursor"))
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	rs := make([]probes.Result, 0, len(recs))
	for _, rec := range recs {
		rs = append(rs, rec.Result)
	}
	core.WriteJSON(w, http.StatusOK, core.Page{Items: rs, NextCursor: next, QueryMeta: meta})
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.ServeQuery(w, r, c, c.writeShardErr)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.WriteJSON(w, http.StatusOK, c.Health())
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.WriteJSON(w, http.StatusOK, c.Stats())
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.WriteJSON(w, http.StatusOK, core.Page{Items: c.ShardStatuses()})
}
