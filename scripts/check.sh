#!/bin/sh
# check.sh — the repo's tier-1 verification gate:
#   gofmt -l (no unformatted files), go vet, build, the determinism,
#   envelope, durable-file, probe-protocol, legacy-reader and
#   metrics-registry lints, the full test suite under the race
#   detector (uncached), and the repro reference-output pin without it.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== determinism lint =="
# The controller, journal, results store, probe spool, and federation
# tier must be replay-deterministic: wall-clock reads belong in main(),
# never in these packages. Logical time comes in via Tick / journaled
# ops, and the store's retention clock is the controller's tick counter.
# (Federation's hedge/deadline timers use time.NewTimer on durations,
# which is allowed: they never read the wall clock into state.)
# cmd/fleetsim and internal/fleet, the simulated-fleet driver under it,
# are held to the same bar: their load timing goes through internal/obs
# (StartTimer/Elapsed), so the load generator itself stays
# clock-discipline clean. internal/websim and internal/archival join the
# list in PR9: websteps measurements and their archival records must be
# a pure function of (seed, topology, policy) so sweeps replay
# byte-identically — latencies are modeled, never measured.
# internal/dnssim and internal/dnsload join in PR10: resolver chains and
# the paced load driver run in purely logical time (token-bucket send
# times, modeled RTTs), so identical configs aggregate identically at
# any worker count. internal/framelog, the durable-file primitive under
# journal, store and spool, is held to their bar.
if git grep -nE 'time\.(Now|Since|Until)\(' -- internal/core internal/framelog internal/journal internal/store internal/spool internal/federation internal/websim internal/archival internal/dnssim internal/dnsload internal/fleet cmd/fleetsim; then
    echo "determinism lint: time.Now / time.Since / time.Until are forbidden in internal/core, internal/framelog, internal/journal, internal/store, internal/spool, internal/federation, internal/websim, internal/archival, internal/dnssim, internal/dnsload, internal/fleet, and cmd/fleetsim" >&2
    exit 1
fi
# The websteps stack draws all randomness from seeded splitmix64
# streams; math/rand (even seeded) would tie verdicts to call order and
# break the serial-vs-parallel equivalence contract, so the import
# itself is banned in these two packages. (internal/outage's schedule
# generator may use a locally seeded rand.Rand — its draws happen once,
# serially, at generation time.)
if git grep -n '"math/rand"' -- internal/websim internal/archival internal/dnssim internal/dnsload; then
    echo "determinism lint: math/rand is forbidden in internal/websim, internal/archival, internal/dnssim, and internal/dnsload — use seeded splitmix64 streams" >&2
    exit 1
fi

echo "== envelope lint =="
# Both HTTP tiers (internal/core's controller, internal/federation's
# coordinator) write responses only through internal/core/envelope.go
# (WriteJSON / WriteScanPage / WriteAggReport / WriteAPIError), so every
# non-2xx body carries the uniform {"error": {code, message, request_id}}
# envelope. A stray http.Error or naked WriteHeader anywhere else in
# either package bypasses it.
if git grep -n 'http\.Error(\|WriteHeader(' -- internal/core internal/federation ':!internal/core/envelope.go'; then
    echo "envelope lint: http.Error / WriteHeader are forbidden in internal/core (outside envelope.go) and internal/federation" >&2
    exit 1
fi

echo "== durable-file lint =="
# Journal, spool and store create, truncate and rename files only through
# internal/framelog (one torn-tail open, one atomic replace, one
# fail-stop flag); a hand-rolled write path in an owner bypasses all three.
if git grep -n 'os\.Rename(\|\.Truncate(\|os\.OpenFile(' -- internal/journal internal/spool internal/store ':!*_test.go'; then
    echo "durable-file lint: os.Rename / Truncate / os.OpenFile are forbidden in internal/journal, internal/spool and internal/store — use internal/framelog" >&2
    exit 1
fi

echo "== probe-protocol lint =="
# Every probe call is journaled as one probe_sync record through
# applySyncLocked, and every submission as one experiment_submit_cols
# record of assignment columns; the four retired kinds are only ever read
# back by replay. A mutateLocked call handing one of them to the journal
# is a second write path growing back.
if git grep -n 'mutateLocked(op\(Heartbeat\|Lease\|Results\|Submit,\)' -- internal/core; then
    echo "probe-protocol lint: heartbeat / lease_grant / results_accept / experiment_submit records are read-only — journal probe traffic as opSync and submissions as opSubmitCols" >&2
    exit 1
fi
# The in-process per-call methods are deleted too: in process a probe
# call is SyncProbe.
if git grep -nE 'func \([a-z]+ \*Controller\) (Heartbeat|LeaseTasks|SubmitResults)\(' -- '*.go'; then
    echo "probe-protocol lint: Controller.Heartbeat / LeaseTasks / SubmitResults are deleted — a probe call is one SyncProbe round" >&2
    exit 1
fi
# The per-probe routes (tasks / results / heartbeat under /probes/{id}/)
# are deleted: probe_sync is the one probe route.
if git grep -n '/probes/{id}/' -- internal/core/routes.go; then
    echo "probe-protocol lint: no /probes/{id}/ route — a probe call is one probe_sync round" >&2
    exit 1
fi
# Both tiers serve the shared routes from one handler set in internal/core
# (http.go) over core.Backend; the coordinator owns only the shards route.
if git grep -n 'func (c \*Coordinator) handle' -- internal/federation | grep -v 'handleShards('; then
    echo "probe-protocol lint: a coordinator handler other than handleShards — write the route once in internal/core against core.Backend" >&2
    exit 1
fi
# A coordinator calls every shard through core.Backend, reached through a
# one-method slot (federation.Shard): LocalShard forwards none of the API
# (TestLocalShardForwardsNoBackendMethod reads Backend's method set), and
# the second copy's submit call does not come back.
if git grep -n 'SubmitWithID(' -- internal/federation ':!*_test.go'; then
    echo "shard lint: SubmitWithID in internal/federation — push a partition with core.Backend.Submit" >&2
    exit 1
fi

echo "== legacy-reader lint =="
# Recover reads one directory shape, the one this binary writes; what
# older binaries wrote is read by core.Upgrade alone, through two files:
# internal/core/upgrade.go and internal/journal/legacy.go. The store walk
# (KeySet, whose definition is exempt), the legacy journal opener, the
# struct-chunk frame and the blob's file name stay in them.
if git grep -nE 'KeySet\(|OpenLegacy\(|snapChunkFrame|legacySnapName' -- 'internal/*.go' ':!*_test.go' \
    ':!internal/core/upgrade.go' ':!internal/journal/legacy.go' | grep -v '^internal/store/query.go:.*func (s \*Store) KeySet('; then
    echo "legacy-reader lint: a legacy reader outside internal/core/upgrade.go and internal/journal/legacy.go — Recover reads only the current format; Upgrade owns the past" >&2
    exit 1
fi

echo "== metrics-registry lint =="
# Counters and gauges are families of the one obs.Registry each owner
# holds or is handed, rendered by /metrics without a callback. The second
# system (metrics.CounterSet, bridged by Registry.AddCounters) does not
# come back; internal/metrics is the statistics toolkit of
# internal/experiments only.
if git grep -nE 'AddCounters\(|CounterSet' -- '*.go'; then
    echo "metrics-registry lint: AddCounters / CounterSet are gone — count into reg.Counters(family) or reg.Gauges(family)" >&2
    exit 1
fi
if git grep -n '"github.com/afrinet/observatory/internal/metrics"' -- '*.go' ':!*_test.go' ':!internal/experiments'; then
    echo "metrics-registry lint: internal/metrics is imported only by internal/experiments — metrics live in internal/obs" >&2
    exit 1
fi

echo "== go test -race =="
# -shuffle=on randomizes test order within each package: tests that
# secretly depend on a sibling's side effects fail here instead of in a
# future refactor. The shuffle seed is printed on failure for replay.
go test -race -count=1 -shuffle=on ./...

echo "== repro pin =="
# cmd/repro's reference-output test is built only without -race (a full
# run is several times slower under it), so the race step above skips it.
go test -count=1 ./cmd/repro

echo "== chaos smoke =="
# The test suite above already ran the chaos drills at their default
# seeds; these run second, fixed timelines so every check exercises two
# schedules of each. The harnesses are fully seeded — a failure here
# reproduces with exactly this environment.
OBS_CHAOS_SEED=1337 OBS_CHAOS_ROUNDS=48 \
    go test -count=1 -run '^TestChaosScheduleEndToEnd$' ./internal/core
OBS_FED_CHAOS_SEED=1337 OBS_FED_CHAOS_ROUNDS=40 \
    go test -count=1 -run '^TestShardChaosEndToEnd$' ./internal/federation

echo "== bench smoke =="
# Every Go benchmark must still run (one iteration each); they are the
# measuring tools used while working on a layer, beside `go run ./bench`.
go test -run '^$' -bench . -benchtime=1x -count=1 . > /dev/null
go test -run '^$' -bench . -benchtime=1x -count=1 ./internal/core > /dev/null
go test -run '^$' -bench . -benchtime=1x -count=1 ./internal/journal > /dev/null
go test -run '^$' -bench . -benchtime=1x -count=1 ./internal/store > /dev/null
go test -run '^$' -bench . -benchtime=1x -count=1 ./internal/federation > /dev/null
# The dnsload high-QPS engine gets a named smoke: one full 1M-query
# paced run must complete (the root sweep above already includes it;
# this line keeps the target visible and fails loudly if it is renamed).
go test -run '^$' -bench '^BenchmarkDNSLoad$' -benchtime=1x -count=1 . > /dev/null

echo "== fleetsim smoke =="
# A small fleet through the v1 HTTP surface under the race detector: the
# run itself asserts exactly-once completion (executed == recorded, empty
# spools, no dedups/rejects/requeues/reassignments, no outstanding leases)
# and exits non-zero on any violation.
go run -race ./cmd/fleetsim -probes 1000 -duration 30s -tasks-per-probe 4 -workers 16

echo "OK"
