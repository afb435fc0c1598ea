# Tier-1 verification: formatting, vet, build, and the full test suite
# under the race detector. CI and pre-merge both run `make check`.
.PHONY: check test build fmt lint fuzz bench pairs chaos fleetsim-smoke loc

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w .

# The typed lint alone (lint_test.go): the rule table, each rule's
# testdata/lint trees, and the dead-code rules. Also part of `make check`.
lint:
	go test -count=1 -run '^Test(Lint|EveryDeclarationIsNamed)' .

# Non-test Go lines per package and in total, outside bench/: the number
# every PR reports (going down is a feature). `make loc REV=...` prints
# that revision's table beside this tree's, with the delta per package;
# only a REV given on the command line counts (pairs' default does not).
loc:
	./scripts/loc.sh$(if $(filter command line,$(origin REV)), $(REV))

# Run the repo's one benchmark (bench/, declared in BENCHMARK.json): one
# set of every workload, each in a fresh subprocess. bench/README.md has
# the flags for single workloads, traced runs, sets and -compare.
bench:
	go run ./bench

# N alternating parent/change pairs of that benchmark, the parent built
# from commit REV and the change from this working tree: each side's
# median and quartiles per (workload, metric) and the pairs the change
# won. This is how a gain is claimed (ROADMAP); ~2 minutes a pair.
REV ?= HEAD~1
N ?= 10
pairs:
	./scripts/pairs.sh $(REV) $(N)

# Small fleet through the v1 HTTP surface under the race detector; the
# run asserts exactly-once completion and exits non-zero on violation.
# Also part of `make check`.
fleetsim-smoke:
	go run -race ./cmd/fleetsim -probes 1000 -duration 30s -tasks-per-probe 4 -workers 16

# 30s smoke runs of the replay fuzzers: random record streams,
# truncations, and bit flips must never panic the journal recovery path,
# the record decoder, the snapshot reader, the segment reader, or the
# archival measurement decoder, a random aggregate report must be
# written as encoding/json writes it, and a probe_sync record's cut, and
# the cuts of every other shape recovery reads (snapshot frames,
# probe_register and experiment_submit_cols records), and the submit
# body's, must read what json.Unmarshal reads or decline, an experiment
# reply must be written as encoding/json writes it, and a store driven
# through appends, flushes, compactions and reopens must read alike with
# its sealed summary and without. The three targets that go through real
# files get -fuzzminimizetime 1x: file I/O
# makes coverage flicker, every flicker reads as an interesting input,
# and the engine's default is to spend up to a minute minimizing each —
# the whole 30s, a few dozen executions in.
fuzz:
	go test ./internal/journal -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 30s
	go test ./internal/journal -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 30s
	go test ./internal/core -run '^$$' -fuzz '^FuzzSnapshotRead$$' -fuzztime 30s -fuzzminimizetime 1x
	go test ./internal/core -run '^$$' -fuzz '^FuzzAggReportJSON$$' -fuzztime 30s
	go test ./internal/core -run '^$$' -fuzz '^FuzzSyncOpCut$$' -fuzztime 30s
	go test ./internal/core -run '^$$' -fuzz '^FuzzSnapshotFrameCut$$' -fuzztime 30s
	go test ./internal/core -run '^$$' -fuzz '^FuzzSubmitBodyCut$$' -fuzztime 30s
	go test ./internal/core -run '^$$' -fuzz '^FuzzExperimentJSON$$' -fuzztime 30s
	go test ./internal/store -run '^$$' -fuzz '^FuzzSegmentReplay$$' -fuzztime 30s -fuzzminimizetime 1x
	go test ./internal/store -run '^$$' -fuzz '^FuzzStoreReadsAgree$$' -fuzztime 30s -fuzzminimizetime 1x
	go test ./internal/archival -run '^$$' -fuzz '^FuzzArchivalDecode$$' -fuzztime 30s

# Long-timeline chaos drills under the race detector: link flaps,
# partitions, probe power cycles, and two controller crash/recovers on
# a seeded schedule, then federated shard kills/restarts/failovers on
# two seeds. CHAOS_SEED / CHAOS_ROUNDS pick the controller timeline;
# FED_CHAOS_SEED / FED_CHAOS_SEED2 / FED_CHAOS_ROUNDS the shard one.
CHAOS_SEED ?= 42
CHAOS_ROUNDS ?= 120
FED_CHAOS_SEED ?= 11
FED_CHAOS_SEED2 ?= 23
FED_CHAOS_ROUNDS ?= 80
chaos:
	OBS_CHAOS_SEED=$(CHAOS_SEED) OBS_CHAOS_ROUNDS=$(CHAOS_ROUNDS) \
	go test -race -count=1 -v -run '^TestChaosScheduleEndToEnd$$' ./internal/core
	OBS_FED_CHAOS_SEED=$(FED_CHAOS_SEED) OBS_FED_CHAOS_ROUNDS=$(FED_CHAOS_ROUNDS) \
	go test -race -count=1 -v -run '^TestShardChaosEndToEnd$$' ./internal/federation
	OBS_FED_CHAOS_SEED=$(FED_CHAOS_SEED2) OBS_FED_CHAOS_ROUNDS=$(FED_CHAOS_ROUNDS) \
	go test -race -count=1 -v -run '^TestShardChaosEndToEnd$$' ./internal/federation
