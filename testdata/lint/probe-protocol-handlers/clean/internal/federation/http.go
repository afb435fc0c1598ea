package federation

import "net/http"

// Coordinator serves the shards route.
type Coordinator struct{ shards []string }

func (c *Coordinator) handleShards(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write([]byte(c.shards[0]))
}

// Shard is not the coordinator.
type Shard struct{}

func (Shard) handleQuery(w http.ResponseWriter, _ *http.Request) {}

// Mux serves the shards route.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/shards", c.handleShards)
	mux.HandleFunc("/api/v1/query", Shard{}.handleQuery)
	return mux
}
