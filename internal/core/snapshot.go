package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/probes"
)

// What a framed snapshot's frames mean (internal/journal owns the file,
// its header frame and the rule that the frame count must match). The
// head names how many probes and, per experiment, how many assignments
// the book holds; that fixes the layout of the frames behind it:
//
//	probe blocks   ceil(probes/snapChunk) frames, each a JSON array of
//	               persistProbe, probes in id order
//	chunks         per experiment in id order, ceil(assignments/snapChunk)
//	               frames, each an assignCols ("layout":"columns" in the
//	               head; a head without one, which only an older binary
//	               wrote, is refused)
//	queues         one frame, the non-empty per-probe queues by probe id
//	leases         one frame, the lease table by lease key
//	submit ids     one frame, request id -> experiment id
//	unsealed       one frame, the unsealed list ("[]" when empty)
//
// Every frame is a pure function of the book and its index, and maps are
// written with sorted keys, so the file is the same bytes at any worker
// count. Frames are encoded straight from the live book under the
// controller lock and decoded into slots addressed by index: a chunk
// fills its own range of an assignment slice sized from the head.

// snapChunk is how many assignments (or probes) one frame holds, and
// snapLayout the layout of the chunks this binary writes.
const (
	snapChunk  = 256
	snapLayout = "columns"
)

// snapHead is the owner's header of a framed snapshot.
type snapHead struct {
	persistScalars
	Layout      string    `json:"layout,omitempty"`
	Probes      int       `json:"probes"`
	Experiments []snapExp `json:"experiments,omitempty"`
}

// snapExp is one experiment in the head: everything but its assignments,
// which follow in Assignments-many entries over its chunks. Recorded
// names the recorded task ids that are no assignment of the experiment;
// results are admitted only against the experiment's task ids, so a live
// controller has none, and the chunks' index runs are the whole set.
type snapExp struct {
	ID          string           `json:"id"`
	Owner       string           `json:"owner"`
	Description string           `json:"description"`
	Status      ExperimentStatus `json:"status"`
	Assignments int              `json:"assignments"`
	Recorded    []string         `json:"recorded,omitempty"`
}

// assignCols is up to snapChunk consecutive assignments as they are kept
// on disk, column by column: probe ids, task ids, the distinct task bodies
// (ids blanked, first-seen order) and each assignment's index into them,
// omitted when there is one body. Recorded, in a snapshot, is which are
// recorded: ascending half-open runs [lo, hi) of indices into the chunk.
type assignCols struct {
	Probes   []string      `json:"probes"`
	IDs      []string      `json:"ids"`
	Tasks    []probes.Task `json:"tasks"`
	Shape    []int         `json:"shape,omitempty"`
	Recorded [][2]int      `json:"recorded,omitempty"`
}

// colsOf writes chunk in columns, with the runs of it that rec holds.
func colsOf(chunk []probes.Assignment, rec map[string]bool) assignCols {
	n := len(chunk)
	cols, body := assignCols{Probes: make([]string, n), IDs: make([]string, n), Shape: make([]int, n)}, map[probes.Task]int{}
	for i, a := range chunk {
		cols.Probes[i], cols.IDs[i], a.Task.ID = a.ProbeID, a.Task.ID, ""
		k, ok := body[a.Task]
		if !ok {
			k, body[a.Task] = len(cols.Tasks), len(cols.Tasks)
			cols.Tasks = append(cols.Tasks, a.Task)
		}
		cols.Shape[i] = k
		if r := cols.Recorded; rec[cols.IDs[i]] && len(r) > 0 && r[len(r)-1][1] == i {
			r[len(r)-1][1]++
		} else if rec[cols.IDs[i]] {
			cols.Recorded = append(r, [2]int{i, i + 1})
		}
	}
	if len(cols.Tasks) == 1 {
		cols.Shape = nil
	}
	return cols
}

// readChunk decodes an assignCols chunk into dst, which it must fill
// exactly, and returns its recorded runs and whether json.Unmarshal read
// it because cutCols declined it (cut.go).
func readChunk(p []byte, dst []probes.Assignment) ([][2]int, bool, error) {
	var cols assignCols
	reflected, err := cutOr(p, &cols, cutCols)
	if err != nil {
		return nil, reflected, err
	}
	runs, err := fillChunk(cols, dst)
	return runs, reflected, err
}

// fillChunk writes a chunk's assignments into dst, which they must fill
// exactly, and returns its recorded runs.
func fillChunk(cols assignCols, dst []probes.Assignment) ([][2]int, error) {
	n := len(dst)
	if cols.Shape == nil && len(cols.Tasks) == 1 {
		cols.Shape = make([]int, n) // one body; with any other count a missing shape is short
	}
	if len(cols.Probes) != n || len(cols.IDs) != n || len(cols.Shape) != n {
		return nil, fmt.Errorf("holds %d probes, %d ids and %d shape entries, the head gives it %d entries", len(cols.Probes), len(cols.IDs), len(cols.Shape), n)
	}
	for i, k := range cols.Shape {
		if k < 0 || k >= len(cols.Tasks) {
			return nil, fmt.Errorf("entry %d names task body %d of %d", i, k, len(cols.Tasks))
		}
		dst[i] = probes.Assignment{ProbeID: cols.Probes[i], Task: cols.Tasks[k]}
		dst[i].Task.ID = cols.IDs[i]
	}
	return cols.Recorded, nil
}

// submitColsOp is opSubmitCols's record: the assignments (the outer field
// hides submitOp's) as their count and its chunks.
type submitColsOp struct {
	submitOp
	Assignments int          `json:"assignments"`
	Chunks      []assignCols `json:"chunks"`
}

// submitRecord is a submission as opSubmitCols journals it. The columns
// are built when the journal marshals it, inside the append, so a
// controller without a journal builds none.
type submitRecord submitOp

func (r submitRecord) MarshalJSON() ([]byte, error) {
	n := len(r.Assignments)
	return json.Marshal(submitColsOp{submitOp(r), n, par.Map(0, frameCount(n), func(i int) assignCols {
		return colsOf(r.Assignments[i*snapChunk:min((i+1)*snapChunk, n)], nil)
	})})
}

// decodeSubmitCols is opSubmitCols's Op: cut (cutSubmitCols) or read by
// json.Unmarshal, and counted when it is the latter, like CutOpOf's. Every
// assignment takes at least its two quoted ids, so the record's size
// bounds the count before anything is allocated for it; the chunks then
// fill it side by side.
func decodeSubmitCols(data []byte) (func(*Controller), error) {
	var rec submitColsOp
	reflected, err := cutOr(data, &rec, cutSubmitCols)
	if err != nil {
		return nil, err
	}
	op, n := rec.submitOp, rec.Assignments
	if n < 0 || n > len(data)/4 || frameCount(n) != len(rec.Chunks) {
		return nil, fmt.Errorf("a record of %d bytes holds %d assignments in %d chunks", len(data), n, len(rec.Chunks))
	}
	op.Assignments = make([]probes.Assignment, n)
	err = par.ForEachErr(0, len(rec.Chunks), func(i int) error {
		_, err := fillChunk(rec.Chunks[i], op.Assignments[i*snapChunk:min((i+1)*snapChunk, n)])
		return err
	})
	return func(c *Controller) {
		if reflected {
			reflectDecoded(c)
		}
		c.applySubmit(op)
	}, err
}

// snapTailFrames is how many single frames follow the chunks.
const snapTailFrames = 4

// frameCount is how many frames n entries fill.
func frameCount(n int) int { return (n + snapChunk - 1) / snapChunk }

// snapshotFrames renders the book as a framed snapshot. Nothing is copied
// first: the workers read the live book, which the caller's lock keeps
// still.
func (b *book) snapshotFrames() (snapHead, [][]byte, error) {
	probeIDs, expIDs := sortedKeys(b.probes), sortedKeys(b.experiments)
	var jobs []func() any
	for lo := 0; lo < len(probeIDs); lo += snapChunk {
		ids := probeIDs[lo:min(lo+snapChunk, len(probeIDs))]
		jobs = append(jobs, func() any {
			block := make([]persistProbe, len(ids))
			for i, id := range ids {
				ps := b.probes[id]
				block[i] = persistProbe{Info: ps.info, LastSeen: ps.lastSeen, Health: ps.health}
			}
			return block
		})
	}
	for _, id := range expIDs {
		assigned, rec := b.experiments[id].Assignments, b.recorded[id]
		for lo := 0; lo < len(assigned); lo += snapChunk {
			chunk := assigned[lo:min(lo+snapChunk, len(assigned))]
			jobs = append(jobs, func() any { return colsOf(chunk, rec) })
		}
	}
	jobs = append(jobs,
		func() any {
			queues := make(map[string][]probes.Task)
			for id, q := range b.queues {
				if len(q) > 0 {
					queues[id] = q
				}
			}
			return queues
		},
		func() any {
			leases := make(map[string]persistLease, len(b.leases))
			for k, l := range b.leases {
				leases[k] = persistLease{Task: l.task, ProbeID: l.probeID, Deadline: l.deadline}
			}
			return leases
		},
		func() any { return b.submitIDs },
		func() any { return append([]unsealedRef{}, b.unsealed...) },
	)
	head := snapHead{
		persistScalars: persistScalars{
			Now:           b.now,
			NextExpID:     b.nextExpID,
			Counters:      b.stats.Snapshot(),
			Trusted:       sortedKeys(b.trusted),
			ServedTotal:   b.servedTotal,
			ServedCountry: b.servedCountry,
			ServedASN:     b.servedASN,
		},
		Layout: snapLayout,
		Probes: len(probeIDs),
		Experiments: par.Map(0, len(expIDs), func(i int) snapExp {
			exp := b.experiments[expIDs[i]]
			var extra []string
			for id := range b.recorded[exp.ID] {
				if !b.taskIDs[exp.ID][id] {
					extra = append(extra, id)
				}
			}
			sort.Strings(extra)
			return snapExp{exp.ID, exp.Owner, exp.Description, exp.Status, len(exp.Assignments), extra}
		}),
	}
	frames := make([][]byte, len(jobs))
	err := par.ForEachErr(0, len(jobs), func(i int) (err error) {
		frames[i], err = json.Marshal(jobs[i]())
		return err
	})
	if err != nil {
		err = fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return head, frames, err
}

// decodeSnapshot fills b, an empty book, from the framed snapshot the
// journal read, frame by frame on every core, each frame into the slots
// its index owns: cut (cut.go), or read by json.Unmarshal and counted in
// reflected, except the head and the submit ids, which json.Unmarshal
// always reads. The snapshot's trusted cohort joins b's. A head without a
// layout, which only an older binary wrote, is refused. The whole book or
// an error, after which b is to be dropped: a frame that does not decode,
// or holds another number of entries than the head gives it, fails the
// snapshot.
func decodeSnapshot(snap *journal.Snapshot, b *book) (reflected int, err error) {
	var head snapHead
	if err := json.Unmarshal(snap.Head, &head); err != nil {
		return 0, fmt.Errorf("head: %w", err)
	}
	switch head.Layout {
	case snapLayout:
	case "":
		return 0, fmt.Errorf("head names no layout: %w", ErrNeedsUpgrade)
	default:
		return 0, fmt.Errorf("head names layout %q, which this binary does not read", head.Layout)
	}
	// The frame count bounds every size the head claims before anything
	// is allocated for it.
	want, bounded := snapTailFrames, true
	sized := func(n int) {
		bounded = bounded && n >= 0 && n <= len(snap.Frames)*snapChunk
		want += frameCount(n)
	}
	sized(head.Probes)
	for _, e := range head.Experiments {
		sized(e.Assignments)
	}
	if !bounded || want != len(snap.Frames) {
		return 0, fmt.Errorf("head lays out %d frames (in bounds: %t), snapshot holds %d", want, bounded, len(snap.Frames))
	}

	b.now, b.nextExpID, b.servedTotal = head.Now, head.NextExpID, head.ServedTotal
	for k, v := range head.Counters {
		b.stats.Add(k, v)
	}
	for _, t := range head.Trusted {
		b.trusted[t] = true
	}
	maps.Copy(b.servedCountry, head.ServedCountry)
	maps.Copy(b.servedASN, head.ServedASN)
	probeList := make([]persistProbe, head.Probes)
	decode := make([]func(payload []byte) (reflected bool, err error), 0, want)
	for lo := 0; lo < head.Probes; lo += snapChunk {
		slots := probeList[lo:min(lo+snapChunk, head.Probes)]
		decode = append(decode, func(p []byte) (bool, error) {
			if cutProbeBlock(p, slots) {
				return false, nil
			}
			clear(slots) // the cut's writes: encoding/json decodes into a slot without zeroing it
			block := slots[:0:len(slots)]
			return true, unmarshalFull(p, &block, &block)
		})
	}
	runs := make([][][2]int, want) // by frame
	for _, e := range head.Experiments {
		if b.experiments[e.ID] != nil {
			return 0, fmt.Errorf("head names experiment %q twice", e.ID)
		}
		exp := &Experiment{ID: e.ID, Owner: e.Owner, Description: e.Description, Status: e.Status}
		if e.Assignments > 0 {
			exp.Assignments = make([]probes.Assignment, e.Assignments)
		}
		b.experiments[e.ID] = exp
		for lo := 0; lo < e.Assignments; lo += snapChunk {
			f, chunk := len(decode), exp.Assignments[lo:min(lo+snapChunk, e.Assignments)]
			decode = append(decode, func(p []byte) (reflected bool, err error) {
				runs[f], reflected, err = readChunk(p, chunk)
				return reflected, err
			})
		}
	}
	var queues map[string][]probes.Task
	var leases map[string]persistLease
	var submitIDs map[string]string
	decode = append(decode,
		func(p []byte) (bool, error) { return cutOr(p, &queues, cutQueues) },
		func(p []byte) (bool, error) { return cutOr(p, &leases, cutLeases) },
		func(p []byte) (bool, error) { return false, json.Unmarshal(p, &submitIDs) },
		func(p []byte) (bool, error) { return cutOr(p, &b.unsealed, cutUnsealed) },
	)
	fell := make([]bool, want) // to json.Unmarshal, by frame
	err = par.ForEachErr(0, want, func(i int) (err error) {
		if fell[i], err = decode[i](snap.Frames[i]); err != nil {
			return fmt.Errorf("frame %d: %w", i+1, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, r := range fell {
		if r {
			reflected++
		}
	}

	for _, pp := range probeList {
		b.probes[pp.Info.ID] = &probeState{info: pp.Info, lastSeen: pp.LastSeen, health: pp.Health}
	}
	if len(b.probes) != head.Probes {
		return 0, fmt.Errorf("probe blocks name %d probes, head counts %d", len(b.probes), head.Probes)
	}
	maps.Copy(b.queues, queues)
	maps.Copy(b.submitIDs, submitIDs)
	for k, pl := range leases {
		b.leases[k] = &leaseRec{task: pl.Task, probeID: pl.ProbeID, deadline: pl.Deadline}
	}
	f := frameCount(head.Probes)
	for _, e := range head.Experiments {
		assigned, ids := b.experiments[e.ID].Assignments, e.Recorded
		for lo := 0; lo < e.Assignments; lo, f = lo+snapChunk, f+1 {
			at := 0
			for _, r := range runs[f] {
				if r[0] < at || r[1] <= r[0] || r[1] > min(snapChunk, e.Assignments-lo) {
					return 0, fmt.Errorf("frame %d: recorded run %v out of order or range", f+1, r)
				}
				for at = r[0]; at < r[1]; at++ {
					ids = append(ids, assigned[lo+at].Task.ID) // shares the assignment's string
				}
			}
		}
		b.recorded[e.ID] = toSet(ids)
		taskIDs := make(map[string]bool, len(assigned))
		for _, a := range assigned {
			taskIDs[a.Task.ID] = true
		}
		b.taskIDs[e.ID] = taskIDs
	}
	return reflected, nil
}

// unmarshalFull unmarshals p into v, which must fill *dst — part of v, an
// empty slice whose capacity is its range of a larger one — exactly and
// in place: encoding/json appends to a slice while its capacity lasts, so
// a full dst still is that range, and anything else is an error.
func unmarshalFull[T any](p []byte, v any, dst *[]T) error {
	slots := (*dst)[:cap(*dst)]
	if err := json.Unmarshal(p, v); err != nil {
		return err
	}
	if len(*dst) != len(slots) || (len(slots) > 0 && &(*dst)[0] != &slots[0]) {
		return fmt.Errorf("holds %d entries, the head gives it %d", len(*dst), len(slots))
	}
	return nil
}
