// Package federation shards the observatory controller into N
// region/experiment shards — each a full core.Controller with its own
// journal and results store — behind a coordinator that keeps the v1
// API surface while surviving shard death. The paper's §7 Observatory
// is a continental fleet where power and uplink loss at a regional site
// is the normal case, not the exception: the coordinator routes probe
// traffic by consistent hashing over a journaled shard map, fans
// queries out with per-shard deadlines and hedged retries, returns
// *partial* results flagged degraded instead of failing whole, and
// fails a dead shard's keyspace over to a peer by snapshot ship +
// journal replay with exactly-once task completion preserved.
package federation

import (
	"fmt"
	"hash/crc32"
	"sort"
)

// vnodes is how many virtual nodes each shard contributes to the hash
// ring. More vnodes smooth the keyspace split at the cost of a larger
// (still tiny) routing table.
const vnodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// a shard.
type ringPoint struct {
	hash  uint32
	shard string
}

// ring is a consistent-hash ring over shard IDs. It is immutable once
// built under the coordinator's lock and rebuilt on shard-map changes;
// lookups are lock-free for the holder.
//
// Ownership is deliberately health-independent: a shard's keyspace
// follows its ID, not its liveness. The durable state for a probe's
// tasks and dedup book lives in the owning shard's journal, so routing
// around a dead shard would manufacture a split brain — instead a down
// shard's keys answer 503 (shard_unavailable + Retry-After) until the
// keyspace moves *with its state* via failover under the same shard ID.
type ring struct {
	points []ringPoint
}

// newRing builds a ring over the given shard IDs with vnodes virtual
// nodes each.
func newRing(shardIDs []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(shardIDs)*vnodes)}
	for _, id := range shardIDs {
		for v := 0; v < vnodes; v++ {
			h := crc32.ChecksumIEEE([]byte(fmt.Sprintf("%s#%d", id, v)))
			r.points = append(r.points, ringPoint{hash: h, shard: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// owner maps a key (a probe ID) to the shard owning its keyspace: the
// first virtual node clockwise from the key's hash. Empty ring maps
// everything to "".
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := crc32.ChecksumIEEE([]byte(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
