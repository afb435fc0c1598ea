package federation

// fedbook.go is the coordinator's journaled state machine: the shard map
// and the federated experiments, one apply per record kind, live and in
// replay alike. It holds no lock, backend, health or clock (the Coordinator
// keeps those for its run); the lint's book-pure rule keeps it that way.

import "sort"

// Journaled coordinator mutations. Shard membership and federated
// submissions are the coordinator's durable truth — a restarted
// coordinator must re-route the same keys to the same shard IDs and
// dedup retried submissions — while shard *health* is run-scoped
// observation, rebuilt by probing, and deliberately not journaled.
const (
	opShardAdd      = "shard_add"
	opShardFailover = "shard_failover"
	opFedSubmit     = "fed_submit"
)

type shardAddOp struct {
	ID string `json:"id"`
}

type shardFailoverOp struct {
	ID    string `json:"id"`
	Epoch int    `json:"epoch"`
}

type fedSubmitOp struct {
	FedID       string   `json:"fed_id"`
	RequestID   string   `json:"request_id"`
	Owner       string   `json:"owner"`
	Description string   `json:"description"`
	Shards      []string `json:"shards"`
}

// fedExperiment is the coordinator's book on one federated experiment:
// which shards hold its partitions.
type fedExperiment struct {
	ID     string
	Owner  string
	Shards []string
}

// fedBook is the coordinator's journaled state.
type fedBook struct {
	epochs    map[string]int // shard id → the epoch it serves at
	order     []string       // sorted shard IDs — the deterministic fan-out order
	ring      *ring
	submitIDs map[string]string // client requestID → federated experiment id
	// fedExps holds fexp-0001 to fexp-n: every id is journaled as it is
	// minted, so the next is n+1.
	fedExps map[string]*fedExperiment
}

func newFedBook() fedBook {
	return fedBook{
		epochs:    make(map[string]int),
		ring:      newRing(nil),
		submitIDs: make(map[string]string),
		fedExps:   make(map[string]*fedExperiment),
	}
}

func (b *fedBook) addShard(op shardAddOp) {
	if _, ok := b.epochs[op.ID]; ok {
		return
	}
	b.epochs[op.ID] = 0
	b.order = append(b.order, op.ID)
	sort.Strings(b.order)
	b.ring = newRing(b.order)
}

func (b *fedBook) failover(op shardFailoverOp) { b.epochs[op.ID] = op.Epoch }

func (b *fedBook) submit(op fedSubmitOp) {
	b.fedExps[op.FedID] = &fedExperiment{ID: op.FedID, Owner: op.Owner, Shards: op.Shards}
	if op.RequestID != "" {
		b.submitIDs[op.RequestID] = op.FedID
	}
}
