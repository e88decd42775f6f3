# Developer entry points. `make check` is the gate CI runs: vet, build,
# the full test suite, a race-detector pass over every package the
# parallel execution layer or the metrics hot paths touch, and a coverage
# gate on the metrics registry.

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
# obs: the federation merge and the watchdog are what operators see of a
# sharded fleet — an untested branch there is a blind spot in the one
# deployment mode that matters at scale.
OBS_COVER_MIN := 90
# source: the ingestion layer decides what the whole pipeline sees, so an
# untested delivery or merge branch is a silent stream corruption.
SOURCE_COVER_MIN := 90

upper = $(shell echo $(1) | tr a-z A-Z)

.PHONY: check vet vulncheck build test race bench bench-e2e bench-e2e-check bench-store bench-store-check bench-shard bench-shard-check bench-ingest bench-ingest-check

check: vet vulncheck build test race cover-metrics cover-trace cover-store cover-obs cover-source

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

# bench runs the ML training and parallel-layer benchmarks, then
# regenerates the committed BENCH_ml.json baseline via cmd/benchreport.
# speedup-vs-reference compares the presorted-column split engine against
# the legacy per-node-sort scan (algorithmic win, visible on any core
# count); speedup-vs-1worker compares the default worker count against a
# single-worker fit (expect ~1.0 on a single-core machine). Rotate is one
# hourly node rotation over the columnar screening index (cold and warm).
# SignText, IndexAddProbe and StoreAddBatch are the near-duplicate kernel:
# signing one text, probe-then-add over 10k campaign-skewed signatures, and
# the label stage over a small world's captures.
bench:
	$(GO) test -run NONE -bench 'TreeFit|ForestFit|BoostFit|CrossValidate|DetectorClassify|Rotate|SignText|IndexAddProbe|StoreAddBatch' \
		./internal/ml/tree/ ./internal/ml/forest/ ./internal/ml/boost/ \
		./internal/ml/ ./internal/core/ ./internal/minhash/ ./internal/label/
	$(GO) test -run NONE -bench 'ObsDisabled' ./internal/obs/
	$(GO) run ./cmd/benchreport -mlbench BENCH_ml.json
	$(GO) run ./cmd/benchreport -e2ebench BENCH_e2e.json
	$(GO) run ./cmd/benchreport -storebench BENCH_store.json
	$(GO) run ./cmd/benchreport -shardbench BENCH_shard.json
	$(GO) run ./cmd/benchreport -ingestbench BENCH_ingest.json

# bench-e2e regenerates only the committed end-to-end hot-path baseline
# (NDJSON ingest -> features -> classification, tweets/sec and
# allocs/tweet at workers 1/2/8).
bench-e2e:
	$(GO) run ./cmd/benchreport -e2ebench BENCH_e2e.json

# bench-e2e-check measures the hot path fresh and fails when optimized
# tweets/sec regressed more than 10% against the committed baseline.
# Set PH_SKIP_E2E_CHECK=1 to skip on shared or throttled machines.
bench-e2e-check:
	$(GO) run ./cmd/benchreport -e2echeck BENCH_e2e.json

# bench-store regenerates the committed durable-store baseline: WAL
# append throughput per group-commit setting, recovery time for a
# 30k-record log, and checkpoint write latency.
bench-store:
	$(GO) run ./cmd/benchreport -storebench BENCH_store.json

# bench-store-check measures the durability layer fresh and fails when
# WAL appends at the largest group-commit setting would claim more than
# 10% of the serving pipeline's per-tweet budget, or append/recovery
# throughput regressed >25% against the committed baseline.
# Set PH_SKIP_STORE_CHECK=1 to skip on shared or throttled machines.
bench-store-check:
	$(GO) run ./cmd/benchreport -storecheck BENCH_store.json

# bench-shard regenerates the committed shard-scaling baseline: capture
# throughput of the in-process sharded fanout at 1/2/4/8 shards over a
# fixed pre-generated capture workload.
bench-shard:
	$(GO) run ./cmd/benchreport -shardbench BENCH_shard.json

# bench-shard-check measures the scaling curve fresh and fails when the
# 4-shard speedup misses the core-count-tiered floor (2.5x on >= 8 cores,
# degrading to a 0.5x sanity floor on a single core — a small machine
# cannot reproduce a big runner's parallelism).
# Set PH_SKIP_SHARD_CHECK=1 to skip on shared or throttled machines.
bench-shard-check:
	$(GO) run ./cmd/benchreport -shardcheck BENCH_shard.json

# bench-ingest regenerates the committed source-ingest baseline: posts/sec
# through the Source interface onto the monitor match path, for a direct
# source, a single-child mux (pure machinery overhead), and a two-child
# merge (namespacing + merge cost).
bench-ingest:
	$(GO) run ./cmd/benchreport -ingestbench BENCH_ingest.json

# bench-ingest-check measures ingest overhead fresh and fails when the
# single-child mux costs more than 5% of direct-source throughput.
# Set PH_SKIP_INGEST_CHECK=1 to skip on shared or throttled machines.
bench-ingest-check:
	$(GO) run ./cmd/benchreport -ingestcheck BENCH_ingest.json
