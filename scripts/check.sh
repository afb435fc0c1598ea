#!/bin/sh
# check.sh — the repo's tier-1 verification gate:
#   gofmt -l (no unformatted files), go vet, build, the full test suite
#   under the race detector (uncached), then without it the repro
#   reference-output pin and the typed lint (lint_test.go: determinism,
#   envelope, durable-file, probe-protocol,
#   metrics-registry and span-capture rules, and the dead-code rules).
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

echo "== go test -race =="
# -shuffle=on randomizes test order within each package: tests that
# secretly depend on a sibling's side effects fail here instead of in a
# future refactor. The shuffle seed is printed on failure for replay.
go test -race -count=1 -shuffle=on ./...

echo "== repro pin =="
# cmd/repro's reference-output test is built only without -race (a full
# run is several times slower under it), so the race step above skips it.
go test -count=1 ./cmd/repro

echo "== lint =="
# The typed lint (lint_test.go): every rule of the table, each run on its
# testdata/lint trip and clean trees, and the dead-code rules. It
# type-checks the whole module from source, several times slower under
# -race, so it is built only without it and the race step skips it too.
go test -count=1 -run '^Test(Lint|EveryDeclarationIsNamed)' .

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
