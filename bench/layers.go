package main

// layers.go is the traced run's per-layer budget. Everything here is
// read from outside the program: timing around calls into public
// functions, the same operations replayed one layer down (the
// controller's Go API) and through one layer alone (journal, store,
// spool), and the counts and busy time the program already keeps —
// Count and Sum of its obs histograms, diffed across a window (never
// their p50/p99, which are log2-bucket upper bounds), and its counter
// sets. Inclusive time comes from timing, self time from subtraction.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/spool"
	"github.com/afrinet/observatory/internal/store"
)

// busy is Count and Sum of one histogram series.
type busy struct {
	n   uint64
	sum time.Duration
}

func (b busy) mean() time.Duration {
	if b.n == 0 {
		return 0
	}
	return b.sum / time.Duration(b.n)
}

// readBusy sums every histogram series over the backend's registries
// (the controllers', and the coordinator's when there is one).
func readBusy(b *backend) map[string]busy {
	out := map[string]busy{}
	add := func(reg *obs.Registry) {
		for name, s := range reg.Snapshots() {
			cur := out[name]
			out[name] = busy{n: cur.n + s.Count, sum: cur.sum + s.Sum}
		}
	}
	for _, c := range b.ctrls {
		add(c.Observability())
	}
	if b.coord != nil {
		add(b.coord.Observability())
	}
	return out
}

// Histogram series names, as obs.Registry.Snapshots renders them.
const (
	hHTTPQuery = `obs_http_request_seconds{route="query"}`
	hAppend    = `obs_journal_seconds{op="append"}`
	hFsync     = `obs_journal_seconds{op="fsync"}`
	hSnapshot  = `obs_journal_seconds{op="snapshot"}`
	hIngest    = `obs_store_seconds{op="ingest"}`
	hFlush     = `obs_store_seconds{op="flush"}`
	hScan      = `obs_store_seconds{op="scan"}`
	hAggregate = `obs_store_seconds{op="aggregate"}`
	hCompact   = `obs_store_seconds{op="compact"}`
)

// layerTap diffs the program's own instruments across one measured
// window. A nil tap (the end-to-end run) records nothing.
type layerTap struct {
	c      *runCtx
	b      *backend
	before map[string]busy
}

func (c *runCtx) beginLayers(b *backend) *layerTap {
	if c.tr == nil {
		return nil
	}
	return &layerTap{c: c, b: b, before: readBusy(b)}
}

// delta is what one series accumulated since the tap began.
func (l *layerTap) delta(now map[string]busy, name string) busy {
	a, z := now[name], l.before[name]
	return busy{n: a.n - z.n, sum: a.sum - z.sum}
}

// shardDelta is delta for the coordinator's per-shard call series.
func (l *layerTap) shardDelta(now map[string]busy) []busy {
	var out []busy
	for i := range l.b.shards {
		out = append(out, l.delta(now, fmt.Sprintf(`obs_fed_shard_seconds{shard="s%d"}`, i)))
	}
	return out
}

func share(d, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(d) / float64(wall)
}

// writeLayers reads the write path's instruments over a fleet phase of
// the given wall time.
func (l *layerTap) writeLayers(wall time.Duration, accepted int64) {
	now := readBusy(l.b)
	set := l.c.layer
	fs, ap, sn := l.delta(now, hFsync), l.delta(now, hAppend), l.delta(now, hSnapshot)
	in, fl := l.delta(now, hIngest), l.delta(now, hFlush)
	set["journal.append_us"] = us(ap.mean())
	set["journal.fsync_us"] = us(fs.mean())
	set["journal.fsync_share"] = share(fs.sum, wall)
	if accepted > 0 {
		set["journal.fsyncs_per_result"] = float64(fs.n) / float64(accepted)
		set["store.append_us_per_record"] = us(in.sum) / float64(accepted)
	}
	set["core.snapshot_ms"] = ms(sn.mean())
	set["core.snapshot_count"] = float64(sn.n)
	set["core.snapshot_stall_share"] = share(sn.sum, wall)
	set["store.append_share"] = share(in.sum, wall)
	set["store.flush_ms"] = ms(fl.mean())
	set["store.flush_count"] = float64(fl.n)
	var shed int64
	for _, c := range l.b.ctrls {
		for k, v := range c.Stats().Admission {
			if strings.HasPrefix(k, "shed") {
				shed += v
			}
		}
	}
	set["core.http.shed_count"] = float64(shed)
}

func (l *layerTap) fleetLayers(out fleetOut) {
	if l == nil {
		return
	}
	l.writeLayers(out.wall, out.accepted)
	set := l.c.layer
	set["core.tick_ms"] = ms(out.ticks.median())
	set["client.sync_p99_ms"] = ms(out.syncs.quantile(0.99))
	set["client.sync_p999_ms"] = ms(out.syncs.quantile(0.999))
	set["client.sync_max_ms"] = ms(out.syncs.quantile(1))
	if l.b.coord == nil {
		if raw, err := os.Stat(filepath.Join(l.b.dir, "snapshot.json")); err == nil {
			set["journal.snapshot_bytes"] = float64(raw.Size())
		}
	}
}

// fedFleetLayers adds what the coordinator costs on the write path: its
// handler's time minus the owning shard's call, at equal op counts.
func (l *layerTap) fedFleetLayers(out fleetOut) {
	if l == nil || l.b.coord == nil {
		return
	}
	now := readBusy(l.b)
	var calls busy
	var most, total float64
	for i, d := range l.shardDelta(now) {
		calls.n, calls.sum = calls.n+d.n, calls.sum+d.sum
		n := float64(l.b.ctrls[i].ResultStore().Counters()["store_frames_appended"])
		total += n
		if n > most {
			most = n
		}
	}
	set := l.c.layer
	set["federation.sync_overhead_us"] = us(out.syncs.mean()) - us(calls.mean())
	if total > 0 {
		set["federation.shard_balance"] = most / (total / float64(len(l.b.shards)))
	}
}

// diskLayers reads the closed directory: segment bytes per record.
func (l *layerTap) diskLayers(stored int64) {
	if l == nil || stored == 0 {
		return
	}
	if n, err := dirBytes(filepath.Join(l.b.dir, "store")); err == nil {
		l.c.layer["store.bytes_per_record"] = float64(n) / float64(stored)
	}
}

func (l *layerTap) queryLayers(q queryOut, stored int64) {
	if l == nil {
		return
	}
	now := readBusy(l.b)
	sc, ag := l.delta(now, hScan), l.delta(now, hAggregate)
	set := l.c.layer
	set["store.scan_ms"] = ms(sc.mean())
	set["store.aggregate_ms"] = ms(ag.mean())
	set["store.read_hold_share"] = share(sc.sum+ag.sum, q.busy)
	if stored > 0 {
		set["store.page_ms_per_10k_stored"] = ms(sc.mean()) * 10000 / float64(stored)
	}
	if f := q.first.median(); f > 0 {
		set["store.page_cost_ratio"] = float64(q.last.median()) / float64(f)
	}
	set["client.scan_first_page_ms"] = ms(q.first.median())
	set["client.scan_last_page_ms"] = ms(q.last.median())
	if c := now[hCompact]; c.n > 0 {
		set["store.compact_ms"] = ms(c.mean()) // the fill's mid-way CompactStore
	}
	if l.b.coord == nil {
		// Handler time minus the store operation it wraps, at equal
		// counts: decode, routing, admission, trace, response encode.
		h := l.delta(now, hHTTPQuery)
		if h.n > 0 {
			set["core.http.query_overhead_ms"] = ms(h.sum-sc.sum-ag.sum) / float64(h.n)
		}
	}
}

// fedQueryLayers adds the scatter-gather's cost on the read path.
func (l *layerTap) fedQueryLayers(q queryOut) {
	if l == nil || l.b.coord == nil {
		return
	}
	now := readBusy(l.b)
	var calls busy
	var slowest time.Duration
	for _, d := range l.shardDelta(now) {
		calls.n, calls.sum = calls.n+d.n, calls.sum+d.sum
		if m := d.mean(); m > slowest {
			slowest = m
		}
	}
	all := mergeSamples(q.pages, q.aggFull, q.aggWindow)
	set := l.c.layer
	set["federation.shard_call_ms"] = ms(calls.mean())
	if m := calls.mean(); m > 0 {
		set["federation.slowest_shard_ratio"] = float64(slowest) / float64(m)
	}
	// The coordinator answers when its slowest shard has, then merges.
	set["federation.merge_ms"] = ms(all.mean()) - ms(slowest)
	ctr := l.b.coord.Counters()
	set["federation.hedges"] = float64(ctr["fed_hedges"])
	set["federation.degraded_queries"] = float64(ctr["fed_degraded_queries"])
}

// replayFleet runs the fill's operations again, one layer down and one
// layer alone, on fresh directories: over HTTP and over the Go API
// with a single client each (no mutex wait in either, so handler time
// minus API time is the HTTP tier, and 2-client over 1-client
// throughput is how far the controller mutex lets clients overlap),
// then the same records through a journal, a store and a spool alone.
func (c *runCtx) replayFleet(sh shape, native fleetOut) error {
	one := func(name string, api bool) (fleetOut, map[string]busy, error) {
		b, fleet, err := c.bootFleet(name, sh)
		if err != nil {
			return fleetOut{}, nil, err
		}
		var tp transport = httpTransport{b.handler}
		if api {
			tp = apiTransport{b.ctrls[0]}
		}
		before := readBusy(b)
		out := runFleet(b, tp, fleet, fleetOpts{clients: 1, lease: sh.lease, seed: c.seed, cap: 10 * c.window, keepOps: api})
		c.count(out.attempted, out.failed, nil)
		tap := &layerTap{c: c, b: b, before: before}
		now := readBusy(b)
		d := map[string]busy{}
		for _, k := range []string{hAppend, hSnapshot, hIngest} {
			d[k] = tap.delta(now, k)
		}
		return out, d, b.close()
	}
	httpOne, _, err := one("replay-http", false)
	if err != nil {
		return err
	}
	apiOne, busyAPI, err := one("replay-api", true)
	if err != nil {
		return err
	}
	set := c.layer
	n := float64(len(apiOne.syncs))
	set["core.sync_us"] = us(apiOne.syncs.mean())
	// Medians: the means carry the fsync tail, which differs more between
	// two replays than the HTTP tier costs.
	set["core.http.sync_overhead_us"] = us(httpOne.syncs.median()) - us(apiOne.syncs.median())
	// Self time: inclusive minus journal (append with its fsync, and
	// snapshots) minus store, all from the same replay.
	self := apiOne.syncs.sum() - busyAPI[hAppend].sum - busyAPI[hSnapshot].sum - busyAPI[hIngest].sum
	set["core.sync_self_us"] = us(self) / n
	nNative := float64(len(native.syncs))
	set["core.sync_self_share"] = share(time.Duration(float64(self)/n*nNative), native.wall)
	set["core.http_share"] = share(time.Duration(set["core.http.sync_overhead_us"]*nNative*float64(time.Microsecond)), native.wall)
	if httpOne.wall > 0 && httpOne.accepted > 0 {
		set["core.client_scaling"] = (float64(native.accepted) / native.wall.Seconds()) / (float64(httpOne.accepted) / httpOne.wall.Seconds())
	}
	c.infof("sync budget, share of the %.2fs fleet wall: journal.fsync %.3f + core.snapshot_stall %.3f + store.append %.3f + core.http %.3f + core.sync_self %.3f = %.3f",
		native.wall.Seconds(), set["journal.fsync_share"], set["core.snapshot_stall_share"], set["store.append_share"],
		set["core.http_share"], set["core.sync_self_share"],
		set["journal.fsync_share"]+set["core.snapshot_stall_share"]+set["store.append_share"]+set["core.http_share"]+set["core.sync_self_share"])
	return c.layersAlone(apiOne.ops, sh.lease)
}

// syncOpShape mirrors the shape of the record the controller journals
// for one sync, so a journal alone can be fed the same bytes.
type syncOpShape struct {
	ProbeID string     `json:"probe_id"`
	Refs    []refShape `json:"refs,omitempty"`
	Max     int        `json:"max"`
}

type refShape struct {
	Experiment string `json:"exp"`
	TaskID     string `json:"task"`
}

// layersAlone feeds the recorded operations to one layer at a time.
func (c *runCtx) layersAlone(ops []sentBatch, lease int) error {
	set := c.layer
	// Journal alone: bytes per sync record, exact.
	jdir := filepath.Join(c.dir, "alone-journal")
	lg, err := journal.Open(jdir)
	if err != nil {
		return err
	}
	for _, op := range ops {
		rec := syncOpShape{ProbeID: op.info.ID, Max: lease}
		for _, r := range op.results {
			rec.Refs = append(rec.Refs, refShape{r.Experiment, r.TaskID})
		}
		if _, err := lg.Append("probe_sync", rec); err != nil {
			return err
		}
	}
	if err := lg.Close(); err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(jdir, "journal.log")); err == nil && len(ops) > 0 {
		set["journal.bytes_per_sync"] = float64(fi.Size()) / float64(len(ops))
	}

	// Store alone: allocation per record on the write side, then the
	// read side's operations on what was written.
	var recs []store.Record
	for tick, op := range ops {
		for _, r := range op.results {
			r.ProbeID = op.info.ID
			recs = append(recs, store.Record{Experiment: r.Experiment, TaskID: r.TaskID, ProbeID: op.info.ID,
				Tick: int64(1 + tick/1000), Country: op.info.Country, ASN: op.info.ASN, Result: r})
		}
	}
	if err := c.storeAlone(recs, lease); err != nil {
		return err
	}

	// Spool alone: a probe's outbox in front of the same results.
	sp, err := spool.Open(filepath.Join(c.dir, "alone-spool"), spool.Options{})
	if err != nil {
		return err
	}
	const spooled = 2000
	var appendT, drainT samples
	n := 0
	for _, op := range ops {
		if n >= spooled {
			break
		}
		for _, r := range op.results {
			t0 := time.Now()
			if err := sp.Append(r); err != nil {
				return err
			}
			appendT = append(appendT, time.Since(t0))
			n++
		}
		if len(op.results) == 0 {
			continue
		}
		t0 := time.Now()
		_, upTo := sp.DrainBatch(len(op.results))
		if err := sp.AckBatch(upTo); err != nil {
			return err
		}
		drainT = append(drainT, time.Since(t0))
	}
	if n > 0 {
		set["spool.append_us"] = us(appendT.mean())
		set["spool.drain_ack_us"] = us(drainT.mean())
		if b, err := dirBytes(sp.Dir()); err == nil {
			set["spool.bytes_per_result"] = float64(b) / float64(n)
		}
	}
	return sp.Close()
}

// storeAlone times the store's own operations on a fresh directory.
func (c *runCtx) storeAlone(recs []store.Record, lease int) error {
	if len(recs) == 0 {
		return nil
	}
	set := c.layer
	dir := filepath.Join(c.dir, "alone-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < len(recs); i += lease {
		j := i + lease
		if j > len(recs) {
			j = len(recs)
		}
		if err := st.Append(recs[i:j]...); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	set["store.alloc_bytes_per_record"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(recs))
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	set["store.open_ms"] = ms(time.Since(t0))
	defer st.Close()
	t0 = time.Now()
	if _, err := st.KeySet(recs[0].Experiment); err != nil {
		return err
	}
	set["store.keyset_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := st.Compact(0); err != nil {
		return err
	}
	set["store.compact_ms"] = ms(time.Since(t0))
	return nil
}

// replayQueries runs a few query cycles again through the controller's
// Go API: one layer down from the handler.
func (c *runCtx) replayQueries(b *backend, last fleetOut) {
	q := newQueryClient(apiTransport{b.ctrls[0]}, last.book, int64(last.rounds), true, c.seed, nil)
	for i := 0; i < minCycles; i++ {
		q.cycle()
	}
	q.out.sort()
	c.count(q.out.attempted, q.out.failed, q.out.notes)
	c.infof("query cycle through the Go API: scan page %s; agg_full %s", q.out.pages.describe(), q.out.aggFull.describe())
}

// replayFed measures, one layer down, how many records the shards hand
// the coordinator per record it returns: each page is fetched again
// from every shard the composite cursor names.
func (c *runCtx) replayFed(b *backend) error {
	f := store.Filter{Country: fleetCountries[0]}
	cursor := ""
	var fetched, returned int
	for {
		pos := map[string]string{}
		if cursor != "" {
			for _, seg := range strings.Split(cursor, ";") {
				i := strings.LastIndex(seg, "=")
				pos[seg[:i]] = seg[i+1:]
			}
		}
		for i, sh := range b.shards {
			id := "s" + strconv.Itoa(i)
			if _, ok := pos[id]; cursor != "" && !ok {
				continue // exhausted on an earlier page
			}
			recs, _, err := sh.ScanPage(f, scanLimit, pos[id])
			if err != nil {
				return err
			}
			fetched += len(recs)
		}
		recs, next, _, err := b.coord.ScanPage(f, scanLimit, cursor)
		if err != nil {
			return err
		}
		returned += len(recs)
		if next == "" {
			break
		}
		cursor = next
	}
	if returned > 0 {
		c.layer["federation.overfetch_ratio"] = float64(fetched) / float64(returned)
	}
	return nil
}

// recoverLayers splits one recovery into its steps on a shipped copy of
// the abandoned directory src, which ctrl served: journal open and decode, store open, the
// per-experiment key-set reconcile, and by subtraction the apply.
func (c *runCtx) recoverLayers(ctrl *core.Controller, src, expFormat string, r recoverOut) error {
	set := c.layer
	dst := filepath.Join(c.dir, "layers-recover")
	if err := federation.ShipState(src, dst, "", ""); err != nil {
		return err
	}
	t0 := time.Now()
	lg, err := journal.Open(dst)
	if err != nil {
		return err
	}
	jOpen := time.Since(t0)
	records := len(lg.Records)
	if err := lg.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	st, err := store.Open(filepath.Join(dst, "store"), store.Options{})
	if err != nil {
		return err
	}
	sOpen := time.Since(t0)
	var reconcile time.Duration
	exps := ctrl.Stats().Experiments
	for i := 1; i <= exps; i++ {
		t0 = time.Now()
		if _, err := st.KeySet(fmt.Sprintf(expFormat, i)); err != nil {
			return err
		}
		reconcile += time.Since(t0)
	}
	if err := st.Close(); err != nil {
		return err
	}
	set["journal.open_ms"] = ms(jOpen)
	set["store.open_ms"] = ms(sOpen)
	set["core.reconcile_ms"] = ms(reconcile)
	if exps > 0 {
		set["store.keyset_ms"] = ms(reconcile) / float64(exps)
	}
	if records > 0 {
		set["journal.decode_us_per_record"] = us(jOpen) / float64(records)
		set["core.recover_apply_us_per_record"] = us(r.replay.median()-jOpen-sOpen-reconcile) / float64(records)
	}
	// From a snapshot the journal is empty: what is left after the
	// store's share is reading, decoding and restoring the snapshot.
	set["core.snapshot_decode_ms"] = ms(r.snapshot.median() - sOpen - reconcile)
	return nil
}

// procLayers reads the process's own cost at the end of the run.
func (c *runCtx) procLayers() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	set := c.layer
	set["proc.alloc_mb_per_s"] = float64(m.TotalAlloc) / (1 << 20) / time.Since(c.start).Seconds()
	set["proc.gc_pause_ms"] = float64(m.PauseTotalNs) / 1e6
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
						set["proc.peak_rss_mb"] = kb / 1024
					}
				}
			}
		}
	}
}

// sentBatch is one sync's delivery, kept by a replay for the
// one-layer-alone runs.
type sentBatch struct {
	info    core.ProbeInfo
	results []probes.Result
}
