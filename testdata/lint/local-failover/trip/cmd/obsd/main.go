package main

import "github.com/afrinet/observatory/internal/federation"

// failover keeps its own map of where each shard lives.
func failover(dirOf map[string]string, id, dst string) error {
	if err := federation.ShipState(dirOf[id], dst); err != nil { // trip: internal/federation.ShipState
		return err
	}
	dirOf[id] = dst
	return nil
}

func main() {}
