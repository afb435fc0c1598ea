package core

// upgrade.go is the one place the controller reads what older binaries
// wrote and this one does not: the one-blob snapshot, struct chunks, the
// retired journal kinds, results that do not say where they sit.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
)

// Upgrade is Recover for a directory any binary wrote, Recover's config
// and all (LeaseTTL changes what replay grants): it recovers
// with the legacy reader and takes a snapshot, which leaves the one shape
// Recover reads — a columns snapshot.log with the unsealed list, an empty
// journal.log, no blob. A crash before the blob is removed leaves a
// directory Recover refuses and Upgrade finishes.
func Upgrade(dir string, cfg DurabilityConfig) (*Controller, error) {
	c, err := recoverWith(legacy, dir, cfg)
	if err != nil {
		return nil, err
	}
	if err = c.Snapshot(); err == nil {
		err = c.log.RemoveLegacy()
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("core: upgrading %s: %w", dir, err)
	}
	return c, nil
}

var legacy = reader{
	open:     journal.OpenLegacy,
	ops:      legacyOps,
	snapshot: decodeLegacySnapshot,
	lost:     (*Controller).walkLostLocked,
}

// wholeQueue is the cap of a lease_grant that asked for max <= 0, the
// whole queue: grantLocked stops at the queue's length.
const wholeQueue = math.MaxInt32

// legacyOps is replayOps with the retired kinds read as what they were: a
// submission, or a sync — neither a heartbeat nor a results upload
// carried a lease ask, and a lease for max <= 0 asked for the whole queue.
var legacyOps = func() map[string]journal.Op[*Controller] {
	ops := maps.Clone(replayOps)
	ops[opSubmit] = journal.OpOf(func(c *Controller, op submitOp) { c.applySubmitLocked(op) })
	ops[opHeartbeat] = journal.OpOf(func(c *Controller, op syncOp) { op.Max = -1; c.applySyncLocked(op) })
	ops[opResults] = ops[opHeartbeat]
	ops[opLease] = journal.OpOf(func(c *Controller, op syncOp) {
		if op.Max <= 0 {
			op.Max = wholeQueue
		}
		c.applySyncLocked(op)
	})
	return ops
}()

// decodeLegacySnapshot is decodeSnapshot for a snapshot of any shape: a
// blob is the state as one JSON value, and a framed one's head may have
// no layout, its chunks then snapChunkFrames.
func decodeLegacySnapshot(snap *journal.Snapshot) (persistState, error) {
	var st persistState
	if snap.State != nil {
		return st, json.Unmarshal(snap.State, &st)
	}
	return decodeSnapshot(snap, readStructChunk)
}

// snapChunkFrame is a chunk in a snapshot whose head has no layout.
type snapChunkFrame struct {
	Assignments []probes.Assignment `json:"assignments"`
	Recorded    [][2]int            `json:"recorded,omitempty"`
}

func readStructChunk(p []byte, dst []probes.Assignment) ([][2]int, error) {
	frame := snapChunkFrame{Assignments: dst[:0:len(dst)]}
	err := unmarshalFull(p, &frame, &frame.Assignments)
	return frame.Recorded, err
}

// walkLostLocked is lostResultsLocked for a book that may not place its
// refs (a blob without "unsealed", a result record without seq): it
// compares, per experiment, the recorded set with the task ids the store's
// segments hold, and what that leaves recorded is sealed. The walk is
// timed as phase=legacy_walk, a part of reconcile.
func (c *Controller) walkLostLocked() ([]resultRef, error) {
	if !c.unsealedUnknown {
		return c.lostResultsLocked()
	}
	t := obs.StartTimer()
	var lost []resultRef
	for expID, rec := range c.recorded {
		if len(rec) == 0 {
			continue
		}
		have, err := c.store.KeySet(expID)
		if err != nil {
			return nil, fmt.Errorf("core: reconciling store for %s: %w", expID, err)
		}
		for taskID := range rec {
			if !have[taskID] {
				lost = append(lost, resultRef{Experiment: expID, TaskID: taskID})
			}
		}
	}
	c.unsealed, c.unsealedUnknown = nil, false
	c.reg.Hist(MetricRecover, "phase", "legacy_walk").Observe(t.Elapsed())
	return lost, nil
}
