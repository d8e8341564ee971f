GO ?= go

# The coverage gate: `make cover` fails when total statement coverage
# drops below this. Measured 87.4% when the floor was recorded; the gap
# absorbs run-to-run noise, not a slow slide — raise it when coverage
# rises.
COVER_FLOOR ?= 84.0

.PHONY: check ci build vet test race race-service race-match store-fault fuzz-smoke bench-smoke bench-load bench-load-smoke perfbench-check fmtcheck bench bench-regression bench-cim bench-match bench-or cover fmt loc

# The gate every change must pass before commit.
check: build vet fmtcheck test race race-service race-match store-fault fuzz-smoke bench-smoke bench-load-smoke perfbench-check

# What .github/workflows/ci.yml runs, as one local target: the check
# gate plus the coverage floor and the benchmark-regression gate.
ci: check cover bench-regression

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (and lists the files) when anything is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The serving layer's concurrency tests (cache, singleflight, shutdown)
# get their own race pass so `check` exercises them even if the full
# race matrix is ever trimmed.
race-service:
	$(GO) test -race ./internal/service/...

# The match engine's runs share one pool of row scratch across
# goroutines (concurrent /match requests, UnionAnswers from several
# ranges); ten race passes give its concurrency tests room to interleave.
race-match:
	$(GO) test -race -count=10 ./internal/match/...

# Store fault-injection smoke: the persistent tier's crash-safety tests —
# the log truncated at every byte offset and at random offsets (a crash
# mid-append), a corrupted record (bit rot must never be served), and the
# randomized write/chop/reopen loop — under the race detector, since the
# same files back a concurrent write-behind queue in production.
store-fault:
	$(GO) test -race -run 'TestCrash|TestFaultInjection|TestCorruptRecord' -count=1 ./internal/store

# Differential fuzzing smoke: the seeded 1200-case sweep through all nine
# oracles (the conjunctive eight plus the disjunctive union oracle; the
# kernel, augment, match and union oracles compare against the references
# in internal/oracle), then 10s of coverage-guided mutation per fuzz
# target on top of the checked-in seed corpora (FuzzDecodeStored holds the
# store record decoder to its re-encode property). Open-ended hunting: go test
# -fuzz=<target> with no -fuzztime, or cmd/tpqfuzz for
# sweep/triage/replay.
fuzz-smoke:
	$(GO) test -run 'TestSeededSweep|TestSweepGenerators' -count=1 ./internal/difffuzz
	$(GO) test -fuzz='^FuzzMinimizeEquiv$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzMinimizeUnderICs$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzServiceConsistency$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzMatch$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzAugment$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzOr$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzOrDecode$$' -fuzztime=10s ./internal/difffuzz
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/pattern
	$(GO) test -fuzz='^FuzzParseCondition$$' -fuzztime=10s ./internal/pattern
	$(GO) test -fuzz='^FuzzFromXPath$$' -fuzztime=10s ./internal/xpath
	$(GO) test -fuzz='^FuzzDecodeStored$$' -fuzztime=10s ./internal/service

# One-iteration runs of the Figure 7(b) incremental-engine benchmark, of
# the in-process /match benchmark and of the cold-miss benchmark: the
# first b.Fatals if its output diverges from ACIM with the nested-map
# reference kernel of internal/oracle, the second if a reply's count
# differs from oracle.BindingsMap's, and the third runs the miss path
# (the unsat check, CDM, the chase and CIM, all over the one layout a
# miss flattens) end to end in process, so this is a correctness gate as
# much as a perf smoke test.
bench-smoke:
	$(GO) test -run xxx -bench '^BenchmarkFig7bIncremental$$' -benchtime 1x -count=1 .
	$(GO) test -run xxx -bench '^(BenchmarkServiceMatch|BenchmarkServiceMissAllocs)$$' -benchtime 1x -count=1 ./internal/service

# Every figure's quick grid, as aligned tables (full sweeps: drop
# -quick). The root package's testing.B benchmarks are micro-benchmarks
# of the substrate plus the bench-smoke gate; none re-measures a figure.
bench:
	$(GO) run ./cmd/tpqbench -quick

# The perf gate: re-measure every pinned figure (the six paper panels
# 7a 7b 8a 8b 9a 9b, plus service, service-warm-restart, service-scale,
# match and or) in machine-readable form and compare against the
# committed baseline — per-result totals AND per-phase breakdowns, so a
# phase regression can't hide inside a flat total. Exits nonzero when
# anything grew past the threshold or a baseline series is missing.
# Refresh the baseline (on a quiet machine) with:
#   go run ./cmd/tpqbench -json -o BENCH_baseline.json
# or add one figure's results without re-measuring the rest with:
#   go run ./cmd/tpqbench -json -quick -fig <id> -o BENCH_baseline.json -merge
bench-regression:
	$(GO) run ./cmd/tpqbench -json -o .bench/BENCH_head.json
	$(GO) run ./cmd/tpqbench -compare BENCH_baseline.json .bench/BENCH_head.json -threshold 1.5x

# Targeted images-table gate: re-measure the three figures CIM's row
# filter moves (7a, whose rows are lifted whole because probing the fan
# root's children costs more; 7b, whose sparse rows over thousands of
# witness columns are probed, and whose chase-plan series times the chase
# that writes those columns; and 9a's ACIM series) and compare each
# against the baseline, totals and phases.
bench-cim:
	$(GO) run ./cmd/tpqbench -json -fig 7a -outdir .bench
	$(GO) run ./cmd/tpqbench -json -fig 7b -outdir .bench
	$(GO) run ./cmd/tpqbench -json -fig 9a -outdir .bench
	$(GO) run ./cmd/tpqbench -compare BENCH_baseline.json .bench/BENCH_7a.json -threshold 1.5x
	$(GO) run ./cmd/tpqbench -compare BENCH_baseline.json .bench/BENCH_7b.json -threshold 1.5x
	$(GO) run ./cmd/tpqbench -compare BENCH_baseline.json .bench/BENCH_9a.json -threshold 1.5x

# Targeted match-engine gate: re-measure the evaluation figure
# (fig-match/stream: the twig engine's Count of the pinned query over
# 10k/100k/1M-node publishing forests) and compare against the baseline.
# Each result is phase-gated on its match-phase duration and carries
# exact counters: answers, which must not change, and alloc_kb, the heap
# growth of one evaluation from an empty row pool (internal/bench's
# TestMatchAllocShare holds it under the engine's row bound).
bench-match:
	$(GO) run ./cmd/tpqbench -json -fig match -outdir .bench
	$(GO) run ./cmd/tpqbench -compare BENCH_baseline.json .bench/BENCH_match.json -threshold 1.5x

# Targeted disjunctive-minimization gate: re-measure the or figure
# (fig-or/minimize/k=K: k-disjunct unions of 101-node redundant disjuncts over disjoint type
# alphabets, one worker — the curve must stay ~linear in k) and compare
# against the baseline. The exact counters (disjuncts_out, absorbed,
# unsat) pin the absorption semantics; the compare tool also fails if
# any of its baseline results disappears from the head run.
bench-or:
	$(GO) run ./cmd/tpqbench -json -fig or -outdir .bench
	$(GO) run ./cmd/tpqbench -compare BENCH_baseline.json .bench/BENCH_or.json -threshold 1.5x

# Targeted serving-concurrency gate: re-measure the service-scale figure
# (aggregate ns/request of a Zipf mix at 1..8 concurrent workers, hot
# and mixed series) and compare against the baseline. On a multi-core
# box the hot series falling with worker count is the sharded-cache
# scaling claim; the -compare gate pins whatever this box measured.
bench-load:
	$(GO) run ./cmd/tpqbench -json -fig service-scale -outdir .bench
	$(GO) run ./cmd/tpqbench -compare BENCH_baseline.json .bench/BENCH_service-scale.json -threshold 1.5x

# Load-path smoke for `check`: the quick service-scale sweep (no
# baseline compare — this verifies the figure still runs, not its
# numbers) plus one short open-loop tpqload run against an in-process
# service via its own test, which exercises the full HTTP hot path,
# the HDR histograms, and the tpq-bench/1 emitter end to end.
bench-load-smoke:
	$(GO) run ./cmd/tpqbench -json -fig service-scale -quick -outdir .bench
	$(GO) test -run 'TestLoadAgainstLiveService' -count=1 ./cmd/tpqload

# The benchmark harness is its own module (perfbench/go.mod), so the root
# `go test ./...` never builds or tests it; vet and test it here so a
# change that breaks its build or its dependency guard fails `check`.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Full-suite statement coverage with a floor: fails when the total drops
# below COVER_FLOOR. coverage.out is the artifact CI uploads.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the floor $(COVER_FLOOR)%"; exit 1; }

fmt:
	gofmt -l -w .

# Non-test Go line counts, the size figure the ROADMAP tracks: the root
# module (perfbench/ is its own module, .bench_build/ its build cache),
# the single-query minimization driver, internal/engine, and the serving
# layer, internal/service.
loc:
	@printf 'non-test Go, root module:      %s\n' "$$(find . \( -path ./perfbench -o -path ./.bench_build \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@printf 'non-test Go, internal/engine:  %s\n' "$$(find internal/engine -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'non-test Go, internal/service: %s\n' "$$(find internal/service -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
