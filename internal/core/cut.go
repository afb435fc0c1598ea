package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/topology"
)

// Recovery reads the bulk of what it reads — probe_sync, probe_register
// and experiment_submit_cols records, and every snapshot frame but the
// head and the submit ids — without reflection, and decodeBody reads the
// register and submit bodies the same way: each shape is cut out of
// exactly the layout json.Marshal writes for it (keys in struct order,
// omitempty fields absent or present, no white space; strings and numbers
// as internal/journal's cut helpers take them). Anything else — white
// space, a reordered, duplicate, unknown or case-folded key, null, an
// escape, trailing bytes — declines the whole payload to json.Unmarshal,
// which stays the reference: a cut returns what json.Unmarshal reads,
// nil and empty slices told apart, or declines (FuzzSyncOpCut,
// FuzzSnapshotFrameCut, FuzzSubmitBodyCut). The cuts are pure functions
// of the bytes; the fallback is counted by the caller
// (recovery_reflect_decodes, MetricBodyReflected).

// cutOr reads p into *v through cut, or, when cut is nil or declines p,
// through json.Unmarshal; reflected says which.
func cutOr[T any](p []byte, v *T, cut func([]byte) (T, bool)) (reflected bool, err error) {
	if cut != nil {
		if t, ok := cut(p); ok {
			*v = t
			return false, nil
		}
	}
	return true, json.Unmarshal(p, v)
}

// A cutter reads one value after another off the front of b through
// journal's cut helpers. The first read that does not find its layout
// clears ok, and every read after it reads nothing and returns a zero
// value, so a shape is written as straight-line code and checked once.
type cutter struct {
	b  []byte
	ok bool
}

// cutAll is whether read cuts all of p.
func cutAll(p []byte, read func(c *cutter)) bool {
	c := cutter{p, true}
	read(&c)
	return c.ok && len(c.b) == 0
}

// lit cuts the literal s, and returns c to read the value after it.
func (c *cutter) lit(s string) *cutter {
	c.ok = c.opt(s)
	return c
}

// opt cuts the literal s if it is there, and says so.
func (c *cutter) opt(s string) bool {
	if !c.ok || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		return false
	}
	c.b = c.b[len(s):]
	return true
}

// str cuts a string. One equal to prev is prev: a run of entries that
// repeat a value holds one string, not a copy each.
func (c *cutter) str(prev string) string {
	c.lit(`"`)
	if !c.ok {
		return ""
	}
	var s []byte
	if s, c.b, c.ok = journal.CutString(c.b); string(s) == prev {
		return prev
	}
	return string(s)
}

func (c *cutter) strs() (ss []string) {
	if c.ok {
		ss, c.b, c.ok = journal.CutStrings(c.b)
	}
	return ss
}

func (c *cutter) uint(bits int) (n uint64) {
	if c.ok {
		n, c.b, c.ok = journal.CutUint(c.b, bits)
	}
	return n
}

func (c *cutter) int(bits int) (n int64) {
	if c.ok {
		n, c.b, c.ok = journal.CutInt(c.b, bits)
	}
	return n
}

func (c *cutter) float() (f float64) {
	if c.ok {
		f, c.b, c.ok = journal.CutFloat(c.b)
	}
	return f
}

func (c *cutter) bool() bool {
	if c.opt("true") {
		return true
	}
	c.lit("false")
	return false
}

// list cuts an array, `[]` or `[` elem (`,` elem)* `]`.
func (c *cutter) list(elem func()) {
	c.lit("[")
	if c.opt("]") {
		return
	}
	for more := true; more && c.ok; more = c.opt(",") {
		elem()
	}
	c.lit("]")
}

// object cuts an object of string keys, `{}` or `{"k":` val (`,"k":` val)* `}`;
// a key val has seen before fails the cut.
func (c *cutter) object(val func(key string) (dup bool)) {
	c.lit("{")
	if c.opt("}") {
		return
	}
	for more := true; more && c.ok; more = c.opt(",") {
		k := c.str("")
		c.lit(":")
		if val(k) {
			c.ok = false
		}
	}
	c.lit("}")
}

// task cuts a probes.Task; prev is the task cut before it, whose strings
// it shares where they repeat.
func (c *cutter) task(prev probes.Task) (t probes.Task) {
	t.ID = c.lit(`{"id":`).str("")
	t.Experiment = c.lit(`,"experiment":`).str(prev.Experiment)
	t.Kind = probes.TaskKind(c.lit(`,"kind":`).str(string(prev.Kind)))
	if c.opt(`,"target":`) {
		t.Target = c.str(prev.Target)
	}
	if c.opt(`,"domain":`) {
		t.Domain = c.str(prev.Domain)
	}
	if c.opt(`,"origin_country":`) {
		t.OriginCountry = c.str(prev.OriginCountry)
	}
	if c.opt(`,"repeat":`) {
		t.Repeat = int(c.int(strconv.IntSize))
	}
	if c.opt(`,"queries":`) {
		t.Queries = int(c.int(strconv.IntSize))
	}
	if c.opt(`,"ecs":`) {
		t.ECS = c.bool()
	}
	if c.opt(`,"value":`) {
		t.Value = c.float()
	}
	c.lit("}")
	return t
}

// tasks cuts an array of tasks into a non-nil slice.
func (c *cutter) tasks() []probes.Task {
	ts := []probes.Task{}
	var prev probes.Task
	c.list(func() {
		prev = c.task(prev)
		ts = append(ts, prev)
	})
	return ts
}

// probeInfo cuts a ProbeInfo; prev is as for task.
func (c *cutter) probeInfo(prev ProbeInfo) (p ProbeInfo) {
	p.ID = c.lit(`{"id":`).str("")
	p.ASN = topology.ASN(c.lit(`,"asn":`).uint(32))
	p.Country = c.lit(`,"country":`).str(prev.Country)
	p.HasWired = c.lit(`,"has_wired":`).bool()
	if c.opt(`,"kind":`) {
		p.Kind = c.str(prev.Kind)
	}
	c.lit("}")
	return p
}

// ref cuts a resultRef, `{"exp":"E","task":"T"`, up to the closing brace
// the caller cuts; prev is the experiment cut before it.
func (c *cutter) ref(prev string) (r resultRef) {
	r.Experiment = c.lit(`{"exp":`).str(prev)
	r.TaskID = c.lit(`,"task":`).str("")
	return r
}

// cutSyncOp reads a syncOp from the layout json.Marshal writes for one,
// {"probe_id":"P","refs":[{"exp":"E","task":"T"},...],"seq":N,"max":M}.
// Consecutive refs of one experiment share its string.
func cutSyncOp(data []byte) (op syncOp, ok bool) {
	ok = cutAll(data, func(c *cutter) {
		op.ProbeID = c.lit(`{"probe_id":`).str("")
		if c.opt(`,"refs":`) {
			op.Refs = make([]resultRef, 0, bytes.Count(c.b, []byte(`{"exp":`)))
			prev := ""
			c.list(func() {
				r := c.ref(prev)
				c.lit("}")
				op.Refs, prev = append(op.Refs, r), r.Experiment
			})
		}
		if c.opt(`,"seq":`) {
			op.Seq = c.uint(64)
		}
		op.Max = int(c.lit(`,"max":`).int(strconv.IntSize))
		c.lit("}")
	})
	return op, ok
}

// cutSubmitRequest reads a submission body,
// {"request_id":"R","owner":"O","description":"D","assignments":[{"ProbeID":"P","Task":task},…],"id":"X"},
// request_id and id absent when empty, and assignments null when nil.
// Consecutive assignments share their repeated strings.
func cutSubmitRequest(data []byte) (req SubmitRequest, ok bool) {
	ok = cutAll(data, func(c *cutter) {
		if c.lit("{").opt(`"request_id":`) {
			req.RequestID = c.str("")
			c.lit(",")
		}
		req.Owner = c.lit(`"owner":`).str("")
		req.Description = c.lit(`,"description":`).str("")
		if !c.lit(`,"assignments":`).opt("null") {
			req.Assignments = make([]probes.Assignment, 0, bytes.Count(c.b, []byte(`{"ProbeID":`)))
			var prev probes.Assignment
			c.list(func() {
				prev.ProbeID = c.lit(`{"ProbeID":`).str(prev.ProbeID)
				prev.Task = c.lit(`,"Task":`).task(prev.Task)
				c.lit("}")
				req.Assignments = append(req.Assignments, prev)
			})
		}
		if c.opt(`,"id":`) {
			req.ID = c.str("")
		}
		c.lit("}")
	})
	return req, ok
}

// cutProbeInfo reads probe_register's record, and the register body.
func cutProbeInfo(data []byte) (p ProbeInfo, ok bool) {
	ok = cutAll(data, func(c *cutter) { p = c.probeInfo(ProbeInfo{}) })
	return p, ok
}

// cutProbeBlock reads a snapshot's probe block into dst, which it must
// fill exactly. It may have written part of dst when it declines.
func cutProbeBlock(p []byte, dst []persistProbe) bool {
	n := 0
	return cutAll(p, func(c *cutter) {
		var prev persistProbe
		c.list(func() {
			if n == len(dst) {
				c.ok = false
				return
			}
			pp := &dst[n]
			pp.Info = c.lit(`{"info":`).probeInfo(prev.Info)
			pp.LastSeen = c.lit(`,"last_seen":`).int(64)
			pp.Health = ProbeHealth(c.lit(`,"health":`).str(string(prev.Health)))
			c.lit("}")
			prev, n = *pp, n+1
		})
	}) && n == len(dst)
}

// cutCols reads an assignCols, a snapshot chunk or one of
// experiment_submit_cols's.
func cutCols(p []byte) (cols assignCols, ok bool) {
	ok = cutAll(p, func(c *cutter) {
		cols.Probes = c.lit(`{"probes":`).strs()
		cols.IDs = c.lit(`,"ids":`).strs()
		cols.Tasks = c.lit(`,"tasks":`).tasks()
		if c.opt(`,"shape":`) {
			cols.Shape = make([]int, 0, len(cols.Probes))
			c.list(func() { cols.Shape = append(cols.Shape, int(c.int(strconv.IntSize))) })
		}
		if c.opt(`,"recorded":`) {
			cols.Recorded = [][2]int{}
			c.list(func() {
				lo := int(c.lit("[").int(strconv.IntSize))
				hi := int(c.lit(",").int(strconv.IntSize))
				cols.Recorded = append(cols.Recorded, [2]int{lo, hi})
				c.lit("]")
			})
		}
		c.lit("}")
	})
	return cols, ok
}

// chunkSep is what separates two chunks of experiment_submit_cols. No
// string in the layout holds a quote, so it occurs nowhere else.
const chunkSep = `,{"probes":`

// cutSubmitCols reads experiment_submit_cols's record,
// {"request_id":"R","owner":"O","description":"D","exp_id":"X","assignments":N,"chunks":[…]},
// request_id and exp_id absent when empty. The chunks are cut side by
// side, split at chunkSep: each piece must then be a whole chunk.
func cutSubmitCols(data []byte) (rec submitColsOp, ok bool) {
	c := cutter{data, true}
	c.lit("{")
	if c.opt(`"request_id":`) {
		rec.RequestID = c.str("")
		c.lit(",")
	}
	rec.Owner = c.lit(`"owner":`).str("")
	rec.Description = c.lit(`,"description":`).str("")
	if c.opt(`,"exp_id":`) {
		rec.ExpID = c.str("")
	}
	rec.Assignments = int(c.lit(`,"assignments":`).int(strconv.IntSize))
	c.lit(`,"chunks":[`)
	body, closed := bytes.CutSuffix(c.b, []byte("]}"))
	if !c.ok || !closed {
		return rec, false
	}
	var pieces [][]byte
	for len(body) > 0 {
		i := bytes.Index(body, []byte(chunkSep))
		if i < 0 {
			i = len(body)
		}
		pieces, body = append(pieces, body[:i]), body[min(i+1, len(body)):]
	}
	rec.Chunks = make([]assignCols, len(pieces))
	cut := par.Map(0, len(pieces), func(i int) (ok bool) {
		rec.Chunks[i], ok = cutCols(pieces[i])
		return ok
	})
	return rec, !slices.Contains(cut, false)
}

// cutQueues reads the snapshot's queues frame, {"probe":[task,...],...}.
// Like the other frames' cuts it sizes its result by counting what opens
// an entry in this layout: a hint, which the cut itself then checks.
func cutQueues(p []byte) (queues map[string][]probes.Task, ok bool) {
	queues = make(map[string][]probes.Task, bytes.Count(p, []byte(`":[`)))
	ok = cutAll(p, func(c *cutter) {
		c.object(func(probe string) bool {
			_, dup := queues[probe]
			queues[probe] = c.tasks()
			return dup
		})
	})
	return queues, ok
}

// cutLeases reads the snapshot's leases frame,
// {"key":{"task":…,"probe_id":"P","deadline":N},...}.
func cutLeases(p []byte) (leases map[string]persistLease, ok bool) {
	leases = make(map[string]persistLease, bytes.Count(p, []byte(`":{"task":`)))
	ok = cutAll(p, func(c *cutter) {
		var prev probes.Task
		c.object(func(key string) bool {
			_, dup := leases[key]
			var l persistLease
			l.Task = c.lit(`{"task":`).task(prev)
			l.ProbeID = c.lit(`,"probe_id":`).str("")
			l.Deadline = c.lit(`,"deadline":`).int(64)
			c.lit("}")
			leases[key], prev = l, l.Task
			return dup
		})
	})
	return leases, ok
}

// cutUnsealed reads the snapshot's unsealed frame,
// [{"exp":"E","task":"T","seq":N},...].
func cutUnsealed(p []byte) (refs []unsealedRef, ok bool) {
	refs = make([]unsealedRef, 0, bytes.Count(p, []byte(`{"exp":`)))
	ok = cutAll(p, func(c *cutter) {
		prev := ""
		c.list(func() {
			u := unsealedRef{resultRef: c.ref(prev)}
			u.Seq = c.lit(`,"seq":`).uint(64)
			c.lit("}")
			refs, prev = append(refs, u), u.Experiment
		})
	})
	return refs, ok
}
