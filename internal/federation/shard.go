package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// ErrShardDown is returned for a shard with no backend to call (a killed
// LocalShard, or a slot not yet re-attached after coordinator recovery)
// and for a remote shard that cannot be reached (remoteErr).
// The coordinator maps it to 503 shard_unavailable + Retry-After.
var ErrShardDown = errors.New("federation: shard down")

// ErrShardTimeout is returned when a shard call outlived its per-shard
// deadline. Query fan-outs degrade around it; single-shard probe ops
// surface it as shard_unavailable.
var ErrShardTimeout = errors.New("federation: shard call deadline exceeded")

// Shard is the coordinator's slot for one shard: the core.Backend to call
// now, or ErrShardDown while there is none. The coordinator resolves it on
// every attempt of every call, so a backend swapped or killed between two
// attempts is seen by the second. Two implementations: LocalShard holds an
// in-process core.Controller (obsd -shards mode, and every federation
// test), HTTPShard is a remote controller over its v1 API (obsd
// -coordinator mode).
type Shard interface {
	Backend() (core.Backend, error)
}

// LocalShard holds an in-process core.Controller in a swappable slot, so
// chaos harnesses (and failover) can kill the backend — every call then
// answers ErrShardDown — and later revive it with a recovered controller
// without the coordinator holding a stale pointer.
type LocalShard struct {
	ctrl atomic.Pointer[core.Controller] // nil = down
}

// NewLocalShard wraps a controller (nil starts the shard down).
func NewLocalShard(c *core.Controller) *LocalShard {
	s := &LocalShard{}
	s.ctrl.Store(c)
	return s
}

// Kill marks the shard down and returns the controller it held (nil if
// already down) for the caller to crash or close. In-flight calls that
// already fetched the controller finish against it — exactly like
// requests racing a real process death.
func (s *LocalShard) Kill() *core.Controller { return s.ctrl.Swap(nil) }

// Revive installs a (typically recovered) controller, bringing the
// shard back up.
func (s *LocalShard) Revive(c *core.Controller) { s.ctrl.Store(c) }

// Controller returns the current backend controller, nil when down.
func (s *LocalShard) Controller() *core.Controller { return s.ctrl.Load() }

// Backend is the held controller's core.Backend.
func (s *LocalShard) Backend() (core.Backend, error) {
	c := s.Controller()
	if c == nil {
		return nil, ErrShardDown
	}
	return c.Backend(), nil
}

// ScanPage reads this shard's own records, past the coordinator: what the
// benchmark and the oracles compare a federated scan against.
func (s *LocalShard) ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, error) {
	c := s.Controller()
	if c == nil {
		return nil, "", ErrShardDown
	}
	return c.ScanResults(f, limit, cursor)
}

// HTTPShard is a remote controller as a core.Backend, over its v1 API —
// what obsd -coordinator mode routes to. The client's own retry policy
// applies per call; the coordinator's per-shard deadline bounds the
// whole attempt envelope.
type HTTPShard struct {
	cl *core.Client
}

var _ core.Backend = (*HTTPShard)(nil)

// NewHTTPShard wraps a client.
func NewHTTPShard(cl *core.Client) *HTTPShard { return &HTTPShard{cl: cl} }

// Backend is the shard itself: the remote end decides whether it is up.
func (s *HTTPShard) Backend() (core.Backend, error) { return s, nil }

// remoteErr classifies a client error for the coordinator's routing
// layer. A transport-level failure (connection refused, timeout — any
// error that is not a decoded API response, surfacing after the
// client's own retries) means the shard is unreachable, as does a 503
// from the remote (its recovery gate or admission shed): both become
// ErrShardDown so the coordinator answers 503 shard_unavailable +
// Retry-After instead of mislabeling the outage a 400. Real API
// verdicts (400/404/...) pass through untouched — the shard is up and
// said no.
func remoteErr(err error) error {
	if err == nil {
		return nil
	}
	var apiErr *core.APIError
	if errors.As(err, &apiErr) && apiErr.Status != http.StatusServiceUnavailable {
		return err
	}
	return fmt.Errorf("%w: %v", ErrShardDown, err)
}

// remoteExpErr is remoteErr for the two experiment reads, whose remote 404
// is the Backend contract's ErrUnknownExperiment.
func remoteExpErr(err error, expID string) error {
	var apiErr *core.APIError
	if errors.As(err, &apiErr) && apiErr.Code == core.ErrCodeNotFound {
		return fmt.Errorf("%w %s", core.ErrUnknownExperiment, expID)
	}
	return remoteErr(err)
}

func (s *HTTPShard) Register(_ context.Context, p core.ProbeInfo) error {
	return remoteErr(s.cl.Register(p))
}

// Sync forwards the batch without a wait: long-polling belongs between
// the probe and the coordinator's front end, not inside a per-shard
// deadline that would cut the park short.
func (s *HTTPShard) Sync(_ context.Context, req core.SyncRequest, _ time.Duration) (core.SyncResponse, error) {
	resp, err := s.cl.Sync(req, 0)
	return resp, remoteErr(err)
}

func (s *HTTPShard) Submit(_ context.Context, req core.SubmitRequest) (*core.Experiment, error) {
	exp, err := s.cl.SubmitRequest(req)
	return exp, remoteErr(err)
}

func (s *HTTPShard) Approve(_ context.Context, expID string) error {
	return remoteErr(s.cl.Approve(expID))
}

func (s *HTTPShard) Reject(_ context.Context, expID string) error {
	return remoteErr(s.cl.Reject(expID))
}

func (s *HTTPShard) Experiment(expID string) (*core.Experiment, error) {
	exp, err := s.cl.Experiment(expID)
	return exp, remoteExpErr(err, expID)
}

func (s *HTTPShard) ExperimentResults(expID string, limit int, cursor string) ([]probes.Result, string, QueryMeta, error) {
	rs, next, err := s.cl.ResultsPage(expID, limit, cursor)
	return rs, next, QueryMeta{}, remoteExpErr(err, expID)
}

func (s *HTTPShard) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	items, next, meta, err := s.cl.QueryScan(f, limit, cursor)
	return items, next, meta, remoteErr(err)
}

func (s *HTTPShard) Fold(q store.AggQuery) (*store.Folder, QueryMeta, error) {
	fold, err := s.cl.QueryFold(q.Filter, q.GroupBy)
	return fold, QueryMeta{}, remoteErr(err)
}

func (s *HTTPShard) Tick(int) {} // a remote shard runs its own tick loop

func (s *HTTPShard) Health() (core.HealthReport, error) {
	h, err := s.cl.Health()
	return h, remoteErr(err)
}

func (s *HTTPShard) Stats() (any, error) {
	st, err := s.cl.Stats()
	return st, remoteErr(err)
}

// ShipState clones a dead shard's durable state — journal dir (WAL +
// snapshot) and its results-store segments — into a fresh peer
// directory: the "snapshot ship" half of failover. The second half is
// core.Recover on the destination, which replays the WAL through the
// same apply funcs as a crash restart, so leases, the dedup book, and
// queue state arrive exactly as the dead shard acknowledged them —
// exactly-once completion is preserved across the handoff for free.
// srcStoreDir/dstStoreDir default to <dir>/store when empty, matching
// core.Recover's default layout.
func ShipState(srcDir, dstDir, srcStoreDir, dstStoreDir string) error {
	if srcStoreDir == "" {
		srcStoreDir = filepath.Join(srcDir, "store")
	}
	if dstStoreDir == "" {
		dstStoreDir = filepath.Join(dstDir, "store")
	}
	if err := journal.Clone(srcDir, dstDir); err != nil {
		return fmt.Errorf("federation: shipping journal: %w", err)
	}
	if err := store.Clone(srcStoreDir, dstStoreDir); err != nil {
		return fmt.Errorf("federation: shipping store: %w", err)
	}
	return nil
}

// ShardDir is where local shard id keeps its durable state at epoch under
// root: root/id until its first failover, root/id-epochN after the Nth.
// Without a root it is "", a shard kept in memory.
func ShardDir(root, id string, epoch int) string {
	switch {
	case root == "":
		return ""
	case epoch == 0:
		return filepath.Join(root, id)
	}
	return filepath.Join(root, fmt.Sprintf("%s-epoch%d", id, epoch))
}

// Local is a coordinator and the in-process shards it routes to, by id; a
// coordinator over remote shards is a Local without Shards.
type Local struct {
	*Coordinator
	Shards map[string]*LocalShard
}

// BootLocal starts a coordinator journaled under root/coordinator over n
// in-process shards, shard-0 to shard-(n-1), each recovered at its
// ShardDir for the epoch the coordinator's journal replayed, and installs
// the Failover hook: quiesce, ship ShardDir(epoch-1) to ShardDir(epoch),
// recover there, commit, serve — a crash or failed commit at any step
// leaves the shard where everything it acknowledged is. root == "" keeps
// everything in memory, with no hook: there is no state to ship.
func BootLocal(root string, n int, shardCfg core.DurabilityConfig, cfg Config) (*Local, error) {
	coordDir := ""
	if root != "" {
		coordDir = filepath.Join(root, "coordinator")
	}
	coord, err := New(coordDir, cfg)
	if err != nil {
		return nil, err
	}
	l := &Local{coord, make(map[string]*LocalShard, n)}
	for i := range n {
		id := fmt.Sprintf("shard-%d", i)
		ctrl, err := core.Recover(ShardDir(root, id, coord.book.epochs[id]), shardCfg) // coord serves no one yet

		if err == nil {
			l.Shards[id] = NewLocalShard(ctrl)
			err = coord.AddShard(id, l.Shards[id])
		}
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("federation: booting %s: %w", id, err)
		}
	}
	if root == "" {
		return l, nil
	}
	coord.Failover = func(id string, epoch int, commit func() error) error {
		ls, ok := l.Shards[id]
		if !ok {
			return fmt.Errorf("no local shard %s", id) // journaled by an earlier boot of more shards
		}
		// Close refuses the old controller's later writes; one that fails
		// leaves a crash image, which ships like a dead shard's.
		if old := ls.Kill(); old != nil {
			_ = old.Close()
		}
		dst := ShardDir(root, id, epoch)
		if err := os.RemoveAll(dst); err != nil { // what an earlier attempt left
			return err
		}
		if err := ShipState(ShardDir(root, id, epoch-1), dst, "", ""); err != nil {
			return err
		}
		ctrl, err := core.Recover(dst, shardCfg)
		if err != nil {
			return err
		}
		if err := commit(); err != nil {
			ctrl.Close()
			return err
		}
		ls.Revive(ctrl)
		return nil
	}
	return l, nil
}

// Close closes the coordinator's journal, then every shard's controller.
func (l *Local) Close() error {
	err := l.Coordinator.Close()
	for _, ls := range l.Shards {
		if ctrl := ls.Kill(); ctrl != nil {
			err = errors.Join(err, ctrl.Close())
		}
	}
	return err
}
