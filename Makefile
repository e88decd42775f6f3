# Developer entry points. `make check` is the gate CI runs: gofmt, vet, build,
# the full test suite (which includes TestNoTestOnlyProductionCode, the
# go/types gate that fails when an internal/ function or method is reached
# only from _test.go files), a race-detector pass over every package the
# parallel execution layer or the metrics hot paths touch, a race-detector
# run of every program under examples/, coverage gates on the packages
# named below, and a vet + test pass over the bench/ module. `make bench` prints the in-package micro-benchmarks; nothing
# gates on them — timing is gated by BENCHMARK.json (bench/) alone.

GO ?= go

RACE_PKGS := ./internal/parallel/ \
	./internal/pipeline/ \
	./internal/ml/... \
	./internal/label/ \
	./internal/core/ \
	./internal/imagehash/ \
	./internal/minhash/ \
	./internal/textutil/ \
	./internal/metrics/ \
	./internal/trace/ \
	./internal/twitterapi/ \
	./internal/store/ \
	./internal/shard/ \
	./internal/obs/ \
	./internal/source/ \
	./internal/socialnet/ \
	.

# Statement-coverage gates, one per cover-<pkg> target: `make cover-store`
# gates internal/store at >= $(STORE_COVER_MIN)%.
#
# metrics: the registry sits on every hot path, so untested branches there
# are untested everywhere.
METRICS_COVER_MIN := 90
# trace: the span tracer is woven through every pipeline stage, so a
# regression there silently corrupts latency attribution everywhere.
TRACE_COVER_MIN := 90
# store: the WAL and checkpoint machinery is what stands between a crash
# and silent data loss, so untested recovery branches are latent
# divergence bugs.
STORE_COVER_MIN := 90
# obs: the runtime collector and the stall watchdog are how an operator
# sees a daemon's heap, GC and stuck stages — an untested branch there is
# a blind spot exactly when a run goes wrong.
OBS_COVER_MIN := 90
# source: the ingestion layer decides what the whole pipeline sees, so an
# untested delivery or merge branch is a silent stream corruption.
SOURCE_COVER_MIN := 90
# shard: in proc mode the extract response reader and the retry loop are
# the coordinator's only defence against a dying worker, so an untested
# branch there turns a torn response into a lost or wrong batch. The gate
# sits below the others because the process transport (worker.go: spawn,
# serve, HTTP client) is driven only by the root package's end-to-end tests
# with real worker processes, which this package's profile does not count.
SHARD_COVER_MIN := 70
# core: the capture store's restore and AdoptCapture are where checkpoint
# and WAL bytes become captures again, so an untested branch there is a
# resumed run that silently differs from one that never stopped.
CORE_COVER_MIN := 90
# socialnet, simclock: the simulated firehose is the first stage of every
# end-to-end number and of every restart, which re-simulates each hour
# before the cut, so an untested branch there is an unpinned event order.
SOCIALNET_COVER_MIN := 95
SIMCLOCK_COVER_MIN := 95
# label, minhash, imagehash: the labeler decides every training label, so
# an untested probe branch there is a silently different ground truth.
LABEL_COVER_MIN := 95
MINHASH_COVER_MIN := 95
IMAGEHASH_COVER_MIN := 90

upper = $(shell echo $(1) | tr a-z A-Z)

.PHONY: check fmt vet vulncheck build test race examples bench bench-smoke records

check: fmt vet vulncheck build test race examples cover-metrics cover-trace cover-store cover-obs cover-source cover-shard cover-core cover-socialnet cover-simclock cover-label cover-minhash cover-imagehash bench-smoke

# fmt fails when any Go file differs from gofmt's output (and lists it).
fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

vet:
	$(GO) vet ./...

# vulncheck scans dependencies and call graphs with govulncheck when the
# tool is installed; environments without it (or without network access to
# the vulnerability database) skip the scan rather than fail the gate.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# examples runs every program under examples/ with the race detector and
# fails on the first non-zero exit (a detected race exits 66). Their
# stdout is discarded: this gates that they run, race-free, through the
# public API as a caller drives it — between RunHours calls, say.
EXAMPLES := $(sort $(dir $(wildcard examples/*/main.go)))

examples:
	@set -e; for d in $(EXAMPLES); do \
		echo "$(GO) run -race ./$$d"; \
		$(GO) run -race ./$$d > /dev/null; \
	done

# cover-<pkg> gates internal/<pkg> at >= $(<PKG>_COVER_MIN)% statement
# coverage; a package without a gate variable is an error, not a pass.
cover-%:
	@test -n "$($(call upper,$*)_COVER_MIN)" || { echo "no $(call upper,$*)_COVER_MIN gate for internal/$*"; exit 1; }
	@$(GO) test -coverprofile=.$*.cover ./internal/$*/ > /dev/null
	@$(GO) tool cover -func=.$*.cover | awk -v min=$($(call upper,$*)_COVER_MIN) \
		'/^total:/ { gsub(/%/, "", $$3); \
		if ($$3 + 0 < min) { printf "FAIL: internal/$* coverage %s%% < %d%% gate\n", $$3, min; exit 1 } \
		else printf "internal/$* coverage %s%% (gate %d%%)\n", $$3, min }'
	@rm -f .$*.cover

# records regenerates the committed paper records: TestRunMatchesSmallRecord
# holds docs/results-small.txt byte for byte, and docs/results-medium.txt is
# the scale EXPERIMENTS.md reports. Run it when a change moves the record on
# purpose, and explain the diff.
records:
	$(GO) run ./cmd/benchreport -scale small > docs/results-small.txt
	$(GO) run ./cmd/benchreport -scale medium > docs/results-medium.txt

# bench-smoke vets and tests the benchmark driver. bench/ is its own
# module, so `go build ./...` and `go test ./...` at the root never compile
# it, and an internal rename could break it unnoticed.
bench-smoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# bench prints the in-package micro-benchmarks. TreeFit and BoostFit
# report speedup-vs-reference: the presorted-column split engine against
# the per-node-sort scan kept as their test oracle (algorithmic win,
# visible on any core count). The engine scans a node's feature in one of
# three exact regimes: per-value class counts when the feature has at most
# as many distinct values as the node has rows, else a sorted window
# derived from the parent's, else (at and below 96 samples) the node's rows
# gathered and sorted. ForestFit times the paper-config forest on a
# small noisy task and on a capture-shaped fixture (7,056 × 58, the
# dense-stream detector's training set), and reports speedup-vs-1worker
# (expect ~1.0 on a single-core machine). Presort is
# the fixture's shared presort (radix-sorted columns, value codes and
# levels) at 1 worker and at the default, with allocs. Rotate is one hourly node rotation over
# the columnar screening index (cold and warm). SignText, IndexAddProbe
# and StoreAddBatch are the near-duplicate kernel: signing one text,
# probe-confirm-add over 10k campaign-skewed signatures (reporting the
# candidates each probe walks, cands/probe, beside the AgreeAtLeast calls
# the 4-bit sketch bound leaves, confirms/probe), and the label stage over
# a small world's captures. LabelCorpus labels one collected corpus
# through the Store (AddBatch + Snapshot) and reports speedup-vs-reference
# against the from-scratch batch clusterer kept as its test oracle, with
# allocs/tweet for both. NewWorld generates the bench-scale world (20,000
# accounts, seed 1) that every bench/ row builds as setup_s, with allocs;
# its avatar-hashing pass runs on the pool. EngineHour simulates one hour
# of that world's firehose (4,000 organic tweets/h) and reports ns/tweet
# and allocs/tweet. Normalize is the labeler's one-pass text normalizer,
# both flavours over a simulated stream's tweets and descriptions, and
# reports speedup-vs-reference against the pass-per-step composition kept
# as its test oracle, with allocs/text for both. Seed is what one avatar costs
# its generator (a re-seed and 81 draws) on the lazily seeded source, and
# reports speedup-vs-reference against math/rand's own source, its test
# oracle; AvatarHash is one avatar end to end on the dHash grid path, the
# painted dHash it replaced, and the painted pHash path. The last four
# lines are what no bench/ workload covers: the WAL fsync-cadence sweep and log recovery, reading
# one server hour's stream lines (Next + DecodeTweet), Source/MuxSource
# ingest overhead, and what proc shard mode's extract RPC adds to a
# 64-capture batch (socket excluded).
bench:
	$(GO) test -run NONE -bench 'TreeFit|ForestFit|Presort|BoostFit|CrossValidate|DetectorClassify|Rotate|SignText|IndexAddProbe|StoreAddBatch|LabelCorpus|NewWorld|EngineHour|Normalize' \
		./internal/ml/tree/ ./internal/ml/forest/ ./internal/ml/boost/ \
		./internal/ml/ ./internal/core/ ./internal/minhash/ ./internal/label/ \
		./internal/socialnet/ ./internal/textutil/
	$(GO) test -run NONE -bench 'Seed|AvatarHash' ./internal/imagehash/
	$(GO) test -run NONE -bench 'ObsDisabled' ./internal/obs/
	$(GO) test -run NONE -bench 'WALAppend|Recover' ./internal/store/
	$(GO) test -run NONE -bench 'StreamNext' ./internal/twitterapi/
	$(GO) test -run NONE -bench 'Ingest' ./internal/source/
	$(GO) test -run NONE -bench 'ProcExtract' ./internal/shard/
