# Convenience targets mirroring the CI pipeline (.github/workflows/ci.yml).

GO ?= go
PARALLEL ?= 0 # 0 = one worker per CPU (runner default)

.PHONY: all build test race vet lint figures figures-quick determinism reach bench bench-check profile clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checked run of the packages that exercise the parallel harness.
# The experiments suite runs multi-minute sweeps; give it headroom.
race:
	$(GO) test -race -timeout 45m ./internal/runner/... ./internal/experiments/... ./internal/sim/...

vet:
	$(GO) vet ./...

# Requires golangci-lint on PATH (CI installs it via the official action).
lint:
	golangci-lint run

figures:
	$(GO) run ./cmd/rambda-figures -parallel $(PARALLEL)

figures-quick:
	$(GO) run ./cmd/rambda-figures -quick -parallel $(PARALLEL)

# Determinism gate (CI's determinism job): every -quick table and every
# observability export must be a pure function of the seed. One binary
# runs at -parallel 1 and at -parallel 4; the stdouts and the -obs-dir
# trees must diff clean, and each tree must hold exactly the five
# expected files.
DET_DIR ?= determinism
DET_FILES := breakdown.metrics.json breakdown.trace.json chaos-scaleout.metrics.json scaleout.metrics.json ycsb.metrics.json
determinism:
	rm -rf $(DET_DIR) && mkdir -p $(DET_DIR)
	$(GO) build -o $(DET_DIR)/rambda-figures ./cmd/rambda-figures
	$(DET_DIR)/rambda-figures -quick -parallel 1 -obs-dir $(DET_DIR)/obs-p1 > $(DET_DIR)/figures-p1.txt
	$(DET_DIR)/rambda-figures -quick -parallel 4 -obs-dir $(DET_DIR)/obs-p4 > $(DET_DIR)/figures-p4.txt
	diff $(DET_DIR)/figures-p1.txt $(DET_DIR)/figures-p4.txt
	diff -r $(DET_DIR)/obs-p1 $(DET_DIR)/obs-p4
	for d in obs-p1 obs-p4; do \
		test "$$(LC_ALL=C ls $(DET_DIR)/$$d | tr '\n' ' ')" = "$(DET_FILES) " || \
			{ echo "$(DET_DIR)/$$d: want exactly $(DET_FILES)"; exit 1; }; \
	done

# Reachability report: which functions do the quick figures and the
# examples never run? Builds rambda-figures and every example with
# coverage counters over the whole module, runs `rambda-figures -quick`
# (with -obs-dir, so the exporters count) and then each example, and
# prints every function whose count is 0 (package path, line, name). A function listed here is reached only by
# tests or benchmark kernels, or by nothing.
REACH_DIR ?= reach
EXAMPLES := $(notdir $(wildcard examples/*))
reach:
	rm -rf $(REACH_DIR) && mkdir -p $(REACH_DIR)/cov
	$(GO) build -cover -coverpkg=./... -o $(REACH_DIR)/rambda-figures ./cmd/rambda-figures
	for e in $(EXAMPLES); do \
		$(GO) build -cover -coverpkg=./... -o $(REACH_DIR)/$$e ./examples/$$e || exit 1; \
	done
	GOCOVERDIR=$(REACH_DIR)/cov $(REACH_DIR)/rambda-figures -quick -obs-dir $(REACH_DIR)/obs > /dev/null
	for e in $(EXAMPLES); do \
		GOCOVERDIR=$(REACH_DIR)/cov $(REACH_DIR)/$$e > /dev/null || exit 1; \
	done
	$(GO) tool covdata func -i=$(REACH_DIR)/cov | awk '$$NF == "0.0%"'

# The newest committed BENCH_<n>.json is the baseline; `make bench`
# records the next one.
BENCH_LAST := $(shell ls BENCH_*.json 2>/dev/null | sed 's/[^0-9]//g' | sort -n | tail -1)
BENCH_NEXT := $(shell expr $(BENCH_LAST) + 1)

# Performance-regression harness: times every figure plus the sim
# microbenchmark kernels and writes BENCH_$(BENCH_NEXT).json (schema
# documented in cmd/rambda-bench and EXPERIMENTS.md), its allocation
# counts gated against the newest committed BENCH file. Every BENCH
# file from BENCH_11 on is recorded in one canonical configuration, one
# worker (-parallel 1, as simbench runs), so the figure walls form a
# trajectory across PRs.
BENCH_FLAGS := -quick -parallel 1
bench:
	$(GO) run ./cmd/rambda-bench $(BENCH_FLAGS) -out BENCH_$(BENCH_NEXT).json -baseline BENCH_$(BENCH_LAST).json

# Figures + microbenchmarks: allocation counts (micro allocs/op and
# per-figure totals) against the committed baseline, and time as a
# paired A/B against the parent commit's build (5 alternating rounds;
# fails on a >=25% slowdown in the median and in 4 of 5 rounds). CI's
# bench-smoke job runs the same against the merge base.
bench-check:
	$(GO) run ./cmd/rambda-bench $(BENCH_FLAGS) -out /tmp/BENCH_ci.json -baseline BENCH_$(BENCH_LAST).json -ab HEAD^

# CPU-profile one figure end to end, then open pprof. Usage:
#   make profile FIG=fig8
FIG ?= fig8
profile:
	$(GO) run ./cmd/rambda-figures -quick -parallel 1 -only $(FIG) -cpuprofile /tmp/$(FIG).prof > /dev/null
	$(GO) tool pprof -top /tmp/$(FIG).prof | head -20

clean:
	$(GO) clean ./...
