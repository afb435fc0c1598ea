package federation

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// ErrShardDown is returned by a shard backend that is known-dead (a
// killed LocalShard, or a detached backend after coordinator recovery).
// The coordinator maps it to 503 shard_unavailable + Retry-After.
var ErrShardDown = errors.New("federation: shard down")

// ErrShardTimeout is returned when a shard call outlived its per-shard
// deadline. Query fan-outs degrade around it; single-shard probe ops
// surface it as shard_unavailable.
var ErrShardTimeout = errors.New("federation: shard call deadline exceeded")

// Shard is a controller backend the coordinator routes to. Two
// implementations: LocalShard wraps an in-process core.Controller
// (obsd -shards mode, and every federation test), HTTPShard wraps a
// core.Client against a remote controller (obsd -coordinator mode).
type Shard interface {
	Register(p core.ProbeInfo) error
	// Sync runs one probe round (heartbeat + result upload + lease ask)
	// as one shard call: the only probe traffic a shard sees. The
	// coordinator hedges it only when req asks for no lease.
	Sync(req core.SyncRequest) (core.SyncResponse, error)
	// SubmitWithID creates a sub-experiment under the coordinator's
	// federated id, idempotent per requestID.
	SubmitWithID(requestID, expID, owner, description string, as []probes.Assignment) (*core.Experiment, error)
	Approve(expID string) error
	// Experiment returns (nil, nil) for an unknown id; errors are
	// transport/availability failures.
	Experiment(expID string) (*core.Experiment, error)
	ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, error)
	// ScanItems is ScanPage with each record in its wire form, which is
	// all op=scan needs of it: a remote shard's records are not decoded
	// here and a local shard's are not encoded again.
	ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, error)
	// Fold is the shard's share of a federated aggregate: the partial fold
	// over its own (already deduplicated) records, which the coordinator
	// merges with the other shards' — no record leaves the shard.
	Fold(q store.AggQuery) (*store.Folder, error)
	Health() (core.HealthReport, error)
	Stats() (core.StatsReport, error)
	// Tick advances the shard's logical clock (lease expiry, probe
	// liveness, admission refill). HTTP shards run their own tick loop
	// and no-op here.
	Tick(n int) error
}

// LocalShard wraps an in-process core.Controller behind a swappable
// slot, so chaos harnesses (and failover) can kill the backend — every
// call returns ErrShardDown — and later revive it with a recovered
// controller without the coordinator holding a stale pointer.
type LocalShard struct {
	slot chan *core.Controller // 1-buffered; nil value = down
}

// NewLocalShard wraps a controller (nil starts the shard down).
func NewLocalShard(c *core.Controller) *LocalShard {
	s := &LocalShard{slot: make(chan *core.Controller, 1)}
	s.slot <- c
	return s
}

// Kill marks the shard down and returns the controller it held (nil if
// already down) for the caller to crash or close. In-flight calls that
// already fetched the controller finish against it — exactly like
// requests racing a real process death.
func (s *LocalShard) Kill() *core.Controller {
	c := <-s.slot
	s.slot <- nil
	return c
}

// Revive installs a (typically recovered) controller, bringing the
// shard back up.
func (s *LocalShard) Revive(c *core.Controller) {
	<-s.slot
	s.slot <- c
}

// Controller returns the current backend controller, nil when down.
func (s *LocalShard) Controller() *core.Controller {
	c := <-s.slot
	s.slot <- c
	return c
}

func (s *LocalShard) ctrl() (*core.Controller, error) {
	c := <-s.slot
	s.slot <- c
	if c == nil {
		return nil, ErrShardDown
	}
	return c, nil
}

func (s *LocalShard) Register(p core.ProbeInfo) error {
	c, err := s.ctrl()
	if err != nil {
		return err
	}
	return c.RegisterProbe(p)
}

func (s *LocalShard) Sync(req core.SyncRequest) (core.SyncResponse, error) {
	c, err := s.ctrl()
	if err != nil {
		return core.SyncResponse{}, err
	}
	return c.SyncProbe(req.ProbeID, req.Results, req.Max)
}

func (s *LocalShard) SubmitWithID(requestID, expID, owner, description string, as []probes.Assignment) (*core.Experiment, error) {
	c, err := s.ctrl()
	if err != nil {
		return nil, err
	}
	return c.SubmitExperimentWithID(requestID, expID, owner, description, as)
}

func (s *LocalShard) Approve(expID string) error {
	c, err := s.ctrl()
	if err != nil {
		return err
	}
	return c.Approve(expID)
}

func (s *LocalShard) Experiment(expID string) (*core.Experiment, error) {
	c, err := s.ctrl()
	if err != nil {
		return nil, err
	}
	exp, ok := c.Experiment(expID)
	if !ok {
		return nil, nil
	}
	return exp, nil
}

func (s *LocalShard) ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, error) {
	c, err := s.ctrl()
	if err != nil {
		return nil, "", err
	}
	return c.ScanResults(f, limit, cursor)
}

func (s *LocalShard) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, error) {
	c, err := s.ctrl()
	if err != nil {
		return nil, "", err
	}
	return c.ScanItems(f, limit, cursor)
}

func (s *LocalShard) Fold(q store.AggQuery) (*store.Folder, error) {
	c, err := s.ctrl()
	if err != nil {
		return nil, err
	}
	return c.FoldResults(q)
}

func (s *LocalShard) Health() (core.HealthReport, error) {
	c, err := s.ctrl()
	if err != nil {
		return core.HealthReport{}, err
	}
	return c.Health(), nil
}

func (s *LocalShard) Stats() (core.StatsReport, error) {
	c, err := s.ctrl()
	if err != nil {
		return core.StatsReport{}, err
	}
	return c.Stats(), nil
}

func (s *LocalShard) Tick(n int) error {
	c, err := s.ctrl()
	if err != nil {
		return err
	}
	c.Tick(n)
	return nil
}

// HTTPShard is a Shard backed by a remote controller over its v1 API —
// what obsd -coordinator mode routes to. The client's own retry policy
// applies per call; the coordinator's per-shard deadline bounds the
// whole attempt envelope.
type HTTPShard struct {
	cl *core.Client
}

// NewHTTPShard wraps a client.
func NewHTTPShard(cl *core.Client) *HTTPShard { return &HTTPShard{cl: cl} }

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

func (s *HTTPShard) Register(p core.ProbeInfo) error { return remoteErr(s.cl.Register(p)) }
func (s *HTTPShard) Tick(int) error                  { return nil } // remote shards run their own tick loop

// Sync forwards the batch without a wait: long-polling belongs between
// the probe and the coordinator's front end, not inside a per-shard
// deadline that would cut the park short.
func (s *HTTPShard) Sync(req core.SyncRequest) (core.SyncResponse, error) {
	resp, err := s.cl.Sync(req, 0)
	return resp, remoteErr(err)
}

func (s *HTTPShard) SubmitWithID(requestID, expID, owner, description string, as []probes.Assignment) (*core.Experiment, error) {
	exp, err := s.cl.SubmitWithID(requestID, expID, owner, description, as)
	return exp, remoteErr(err)
}

func (s *HTTPShard) Approve(expID string) error { return remoteErr(s.cl.Approve(expID)) }

func (s *HTTPShard) Experiment(expID string) (*core.Experiment, error) {
	exp, err := s.cl.Experiment(expID)
	if err != nil {
		var apiErr *core.APIError
		if errors.As(err, &apiErr) && apiErr.Code == core.ErrCodeNotFound {
			return nil, nil
		}
		return nil, remoteErr(err)
	}
	return exp, nil
}

func (s *HTTPShard) ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, error) {
	rs, next, err := s.cl.QueryScan(f, limit, cursor)
	return rs, next, remoteErr(err)
}

func (s *HTTPShard) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, error) {
	items, next, err := s.cl.QueryScanItems(f, limit, cursor)
	return items, next, remoteErr(err)
}

func (s *HTTPShard) Fold(q store.AggQuery) (*store.Folder, error) {
	fold, err := s.cl.QueryFold(q.Filter, q.GroupBy)
	return fold, remoteErr(err)
}

func (s *HTTPShard) Health() (core.HealthReport, error) {
	h, err := s.cl.Health()
	return h, remoteErr(err)
}

func (s *HTTPShard) Stats() (core.StatsReport, error) {
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
