package main

// spec.go is the one place the benchmark's names live: the workloads,
// the end-to-end metrics and the per-layer metrics. BENCHMARK.json
// lists the same names; smoke_test.go holds the two together.

// workloadDef is one workload: why it exists and the shape of the
// lifecycle it runs (workloads.go).
type workloadDef struct {
	Name  string
	Why   string
	shape shape
}

var workloads = []workloadDef{
	{"fleet_sync", "one durable controller at obsd's defaults, bulk leases: snapshots every 1024 records sit in the write path, recovery reads a snapshot and a short tail",
		shape{probes: 800, tasks: 8, lease: 4, snapshotEvery: 1024}},
	{"fed_4shard", "the same fleet, queries and failover drill through a coordinator over 4 shards: adds routing, scatter-gather and central merge",
		shape{shards: 4, probes: 800, tasks: 8, lease: 4, snapshotEvery: 1024}},
	{"crash_recover", "automatic snapshots off, small leases, one compaction: the whole history is in the journal for recovery to replay, over merged and unmerged segments",
		shape{probes: 500, tasks: 12, lease: 2, compact: true}},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one end-to-end metric, reported as the harness's clock
// (or the disk) read it. Every workload measures every one of them in
// its own lifecycle, and every timing is the fastest of its samples in
// the run (samples.best). Bound is the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []metricDef{
	// boot, register the fleet and enqueue its tasks: the fastest of the passes
	{"setup_s", "s", "lower", 0.25},
	// closed-loop sync round trip: the fastest of every sync of every pass
	{"sync_best_ms", "ms", "lower", 0.25},
	// journal, snapshot and segment bytes on disk after Close, per result stored
	{"bytes_per_result", "B", "lower", 0.01},
	// the first op=scan page of 200 of a country
	{"scan_page_best_ms", "ms", "lower", 0.25},
	// one complete paged walk of a country: the sum of its pages
	{"scan_walk_best_s", "s", "lower", 0.25},
	// unfiltered group_by=country_asn aggregate
	{"agg_full_best_ms", "ms", "lower", 0.25},
	// aggregate over one country's latest tick (the index-pruned case)
	{"agg_window_best_ms", "ms", "lower", 0.25},
	// core.Recover of the directory as the crash left it
	{"recover_replay_best_s", "s", "lower", 0.25},
	// core.Recover from a fresh snapshot and an empty journal tail
	{"recover_snapshot_best_s", "s", "lower", 0.25},
}

// layerDef is one per-layer metric, reported by the traced run. A layer
// a workload leaves idle reads 0 there.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

var perLayer = []layerDef{
	// core.http: decode, routing, admission, trace, encode.
	{"core.http.sync_overhead_us", "us", "lower"},
	{"core.http.query_overhead_ms", "ms", "lower"},
	{"core.http.shed_count", "count", "lower"},
	// core: the controller under its mutex.
	{"core.sync_us", "us", "lower"},
	{"core.sync_self_us", "us", "lower"},
	{"core.sync_self_share", "ratio", "lower"},
	{"core.http_share", "ratio", "lower"},
	{"core.client_scaling", "ratio", "higher"},
	{"core.snapshot_ms", "ms", "lower"},
	{"core.snapshot_count", "count", "lower"},
	{"core.snapshot_stall_share", "ratio", "lower"},
	{"core.submit_ms_per_10k", "ms", "lower"},
	{"core.tick_ms", "ms", "lower"},
	{"core.recover_apply_us_per_record", "us", "lower"},
	{"core.reconcile_ms", "ms", "lower"},
	{"core.snapshot_decode_ms", "ms", "lower"},
	// journal.
	{"journal.append_us", "us", "lower"},
	{"journal.fsync_us", "us", "lower"},
	{"journal.fsync_share", "ratio", "lower"},
	{"journal.fsyncs_per_result", "ratio", "lower"},
	{"journal.bytes_per_sync", "B", "lower"},
	{"journal.snapshot_bytes", "B", "lower"},
	{"journal.open_ms", "ms", "lower"},
	{"journal.decode_us_per_record", "us", "lower"},
	// store.
	{"store.append_us_per_record", "us", "lower"},
	{"store.append_share", "ratio", "lower"},
	{"store.flush_ms", "ms", "lower"},
	{"store.flush_count", "count", "lower"},
	{"store.compact_ms", "ms", "lower"},
	{"store.alloc_bytes_per_record", "B", "lower"},
	{"store.scan_ms", "ms", "lower"},
	{"store.aggregate_ms", "ms", "lower"},
	{"store.page_cost_ratio", "ratio", "lower"},
	{"store.page_ms_per_10k_stored", "ms", "lower"},
	{"store.read_hold_share", "ratio", "lower"},
	{"store.bytes_per_record", "B", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.keyset_ms", "ms", "lower"},
	// federation.
	{"federation.sync_overhead_us", "us", "lower"},
	{"federation.shard_balance", "ratio", "lower"},
	{"federation.shard_call_ms", "ms", "lower"},
	{"federation.slowest_shard_ratio", "ratio", "lower"},
	{"federation.merge_ms", "ms", "lower"},
	{"federation.overfetch_ratio", "ratio", "lower"},
	{"federation.hedges", "count", "lower"},
	{"federation.degraded_queries", "count", "lower"},
	{"federation.ship_state_ms", "ms", "lower"},
	// spool: traced run only; moves no end-to-end metric today.
	{"spool.append_us", "us", "lower"},
	{"spool.drain_ack_us", "us", "lower"},
	{"spool.bytes_per_result", "B", "lower"},
	// client: rates, medians and tails. They move with the host's
	// neighbours and its disk as much as with the program, so they carry
	// no bound.
	{"client.results_per_s", "1/s", "higher"},
	{"client.sync_p50_ms", "ms", "lower"},
	{"client.sync_p99_ms", "ms", "lower"},
	{"client.sync_p999_ms", "ms", "lower"},
	{"client.sync_max_ms", "ms", "lower"},
	{"client.scan_page_p50_ms", "ms", "lower"},
	{"client.scan_first_page_ms", "ms", "lower"},
	{"client.scan_last_page_ms", "ms", "lower"},
	{"client.agg_full_p50_ms", "ms", "lower"},
	{"client.agg_window_p50_ms", "ms", "lower"},
	{"client.queries_per_s", "1/s", "higher"},
	{"client.recover_replay_p50_s", "s", "lower"},
	{"client.recover_snapshot_p50_s", "s", "lower"},
	// proc.
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.alloc_mb_per_s", "MB/s", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}
