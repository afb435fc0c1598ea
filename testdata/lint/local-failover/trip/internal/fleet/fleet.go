package fleet

import "github.com/afrinet/observatory/internal/federation"

// Failover ships a shard by hand.
func Failover(src, dst string) error {
	return federation.ShipState(src, dst) // trip: internal/federation.ShipState
}
