package federation

// http.go is the coordinator's front end: the Coordinator is the
// core.Backend behind the handlers both tiers share, mounted on the
// router a controller mounts (core.NewRouter) beside the one route only
// this tier has — so probes and analysts cannot tell a coordinator from a
// controller until a shard dies, when they see 503 shard_unavailable on
// that shard's keys (writeShardErr) and degraded-but-correct partial
// query results instead of a dead platform.

import (
	"errors"
	"net/http"
	"strconv"

	"github.com/afrinet/observatory/internal/core"
)

var _ core.Backend = (*Coordinator)(nil)

var shardsRoute = core.RouteInfo{
	Name: "shards", Method: http.MethodGet, Pattern: "/api/v1/shards",
	Summary:  "The coordinator's shard map: each shard's id, failover epoch (bumped whenever its keyspace moves to a replacement backend) and health as seen by the tick-driven detector. A suspect or dead owning shard means 503s on its keys until failover.",
	Response: "page of ShardInfo {id, epoch, health}",
	Priority: core.PriorityLow,
}

// APIRoutes returns the self-description of the coordinator's full v1
// surface: the shared routes, shards, then the routes the router serves
// itself.
func APIRoutes() []core.RouteInfo {
	return append(append(core.SharedRouteInfos(), shardsRoute), core.RouterRoutes()...)
}

// Handler serves the coordinator's v1 surface through the shared router;
// admission runs through the coordinator's own gate (refilled by Tick).
func (c *Coordinator) Handler() http.Handler {
	table := append(core.SharedRoutes(c, c.writeShardErr, c.reg), core.Route{RouteInfo: shardsRoute, Handle: c.handleShards})
	return core.NewRouter(table, c.gate, c.reg, c.traces)
}

// shardRetryAfter is the Retry-After, in seconds, suggested on
// shard_unavailable responses.
const shardRetryAfter = 2

// writeShardErr maps routing-layer failures onto the v1 envelope: an
// unknown experiment or probe is 404, a down or deadline-blown shard is
// 503 shard_unavailable with a Retry-After (the client retries without
// tripping its breaker), a remote shard's own API error passes through
// status and code intact, and anything else is the shard rejecting the
// request (400) — unless it is a local shard's storage fault, which
// core.WriteAPIError answers 503 unavailable like a remote shard would.
func (c *Coordinator) writeShardErr(w http.ResponseWriter, err error) {
	var apiErr *core.APIError
	switch {
	case errors.Is(err, core.ErrUnknownExperiment), errors.Is(err, core.ErrUnknownProbe):
		core.WriteAPIError(w, http.StatusNotFound, core.ErrCodeNotFound, err)
	case errors.Is(err, ErrShardDown), errors.Is(err, ErrShardTimeout), errors.Is(err, ErrNoShards):
		w.Header().Set("Retry-After", strconv.Itoa(shardRetryAfter))
		core.WriteAPIError(w, http.StatusServiceUnavailable, core.ErrCodeShardUnavailable, err)
	case errors.As(err, &apiErr):
		if apiErr.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfter))
		}
		code := apiErr.Code
		if code == "" {
			code = core.ErrCodeUnavailable
		}
		core.WriteAPIError(w, apiErr.Status, code, err)
	default:
		core.WriteAPIError(w, http.StatusBadRequest, core.ErrCodeBadRequest, err)
	}
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.WriteJSON(w, http.StatusOK, core.Page{Items: c.ShardStatuses()})
}
