package federation

import "net/http"

// Coordinator serves the shards route.
type Coordinator struct{ shards []string }

func (c *Coordinator) handleShards(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write([]byte(c.shards[0]))
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write([]byte(c.shards[1]))
}

// Mux serves a route of its own beside the shards route.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/shards", c.handleShards)
	mux.HandleFunc("/api/v1/query", c.handleQuery) // trip: internal/federation.Coordinator.handleQuery
	return mux
}
