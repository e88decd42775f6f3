# Developer entry points. `make check` is the gate CI runs: gofmt, vet, build,
# the full test suite, a race-detector pass over every package the
# parallel execution layer or the metrics hot paths touch, coverage gates
# on the packages named below, and a vet + test pass over the bench/
# module. `make bench` prints the in-package micro-benchmarks; nothing
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

upper = $(shell echo $(1) | tr a-z A-Z)

.PHONY: check fmt vet vulncheck build test race bench bench-smoke

check: fmt vet vulncheck build test race cover-metrics cover-trace cover-store cover-obs cover-source bench-smoke

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

# bench-smoke vets and tests the benchmark driver. bench/ is its own
# module, so `go build ./...` and `go test ./...` at the root never compile
# it, and an internal rename could break it unnoticed.
bench-smoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# bench prints the in-package micro-benchmarks. TreeFit and BoostFit
# report speedup-vs-reference: the presorted-column split engine against
# the per-node-sort scan kept as their test oracle (algorithmic win,
# visible on any core count); ForestFit reports speedup-vs-1worker (expect
# ~1.0 on a single-core machine). Rotate is one hourly node rotation over
# the columnar screening index (cold and warm). SignText, IndexAddProbe
# and StoreAddBatch are the near-duplicate kernel: signing one text,
# probe-then-add over 10k campaign-skewed signatures, and the label stage
# over a small world's captures. The last four lines are what no bench/
# workload covers: the WAL fsync-cadence sweep and log recovery, in-process
# NDJSON decoding, Source/MuxSource ingest overhead, and what proc shard
# mode's extract RPC adds to a 64-capture batch (socket excluded).
bench:
	$(GO) test -run NONE -bench 'TreeFit|ForestFit|BoostFit|CrossValidate|DetectorClassify|Rotate|SignText|IndexAddProbe|StoreAddBatch' \
		./internal/ml/tree/ ./internal/ml/forest/ ./internal/ml/boost/ \
		./internal/ml/ ./internal/core/ ./internal/minhash/ ./internal/label/
	$(GO) test -run NONE -bench 'ObsDisabled' ./internal/obs/
	$(GO) test -run NONE -bench 'WALAppend|Recover' ./internal/store/
	$(GO) test -run NONE -bench 'StreamDecode' ./internal/twitterapi/
	$(GO) test -run NONE -bench 'Ingest' ./internal/source/
	$(GO) test -run NONE -bench 'ProcExtract' ./internal/shard/
