GO ?= go
BENCHTIME ?= 0.3s
PR ?= pr29
PREV_PR ?= pr28
BENCH_JSON ?= BENCH_$(PR).json
# The perf-trajectory suite: cold concretization, warm Session paths, the
# single-session pool, the HTTP daemon pipeline, and the registry-scale suite
# (which also reports solver_vars and heap_bytes). `make bench` runs it and
# records the numbers in $(BENCH_JSON) so performance is tracked across PRs.
BENCH_PATTERN ?= BenchmarkConcretize|BenchmarkSessionWarm|BenchmarkPool|BenchmarkSessionChurn|BenchmarkSessionExtend|BenchmarkDaemon|BenchmarkRegistry

.PHONY: all build vet fmt lint satcheck test race bench benchdiff fuzz-smoke serve-smoke chaos checkbin

all: fmt build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: files need formatting"; exit 1; }

# Project-specific static analysis: the goarxivlint suite (lockheldcall,
# errtaxonomy, slicereturn, ctxthread) over the whole module, test variants
# included. Blocking in CI; see internal/analysis/README.md.
lint: vet
	$(GO) run ./cmd/goarxivlint ./...

# The checked solver build: the sat/concretize/resolve/serve suites with
# deep solver-state audits (internal/sat/invariants.go) at every mutating
# entry point.
satcheck:
	$(GO) test -tags satcheck ./internal/... ./resolve/... ./serve/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench='$(BENCH_PATTERN)' -benchtime=$(BENCHTIME) -benchmem \
		./internal/concretize/ ./resolve/ ./serve/ | tee .bench_raw.txt
	./scripts/benchjson.sh $(PR) '$(BENCH_PATTERN)' < .bench_raw.txt > $(BENCH_JSON)
	@rm -f .bench_raw.txt
	@echo "wrote $(BENCH_JSON)"

# Per-benchmark ns/op and allocs/op deltas against the previous PR's
# committed trajectory file; exits non-zero when anything regressed >20%.
benchdiff:
	./scripts/benchdiff.sh BENCH_$(PREV_PR).json $(BENCH_JSON)

# The serving-tier gate: the full serve suite under -race (coalesce storm,
# shed latency, apply roundtrip, follower deadlines) plus the daemon
# doctor's end-to-end self-checks against a live in-process daemon.
serve-smoke:
	$(GO) test -race -count=1 ./serve/
	$(GO) run ./cmd/goarxivd doctor

# The chaos gate: randomized fault schedules (injected errors, latency,
# panics at the faultpoint sites) against live daemons under -race, with a
# fixed seed matrix and a fault-free oracle; see serve/chaos_test.go.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./serve/

# Repository hygiene: fail when any committed file is an executable binary
# (test binaries, compiled tools); see scripts/checkbin.sh.
checkbin:
	./scripts/checkbin.sh

fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=20s ./internal/version/
	$(GO) test -run=NONE -fuzz='^FuzzParseRange$$' -fuzztime=20s ./internal/version/
	$(GO) test -run=NONE -fuzz='^FuzzParseRoot$$' -fuzztime=20s ./internal/concretize/
	$(GO) test -run=NONE -fuzz='^FuzzOracle$$' -fuzztime=20s ./internal/concretize/
