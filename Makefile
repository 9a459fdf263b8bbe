# Convenience targets; everything is plain `go` underneath (no deps).

.PHONY: build test test-race vet vet-strict lint lint-sarif lint-fixtures bench bench-json bench-check bench-history bench-kernels cover experiments experiments-quick verify-resume verify-dist verify-graphiod examples fmt

build:
	go build ./...

vet:
	go vet ./...

# Repo-specific invariants (durability, cancellation, float comparisons,
# typed errors, clock injection, metric naming, error handling) enforced by
# the stdlib-only analyzer in internal/lint. Non-zero exit on any finding;
# suppress individual lines with `//lint:ignore <rule> <reason>`.
lint:
	go run ./cmd/graphiolint ./...

# The same gate, also writing a SARIF 2.1.0 log for code-scanning uploads
# (the CI lint job attaches lint.sarif as a build artifact).
lint-sarif:
	go run ./cmd/graphiolint -format sarif -o lint.sarif ./...

# The analyzer's own test suite: `// want` hit/clean fixtures per rule,
# call-graph unit tests, SARIF golden, baseline round-trip, directives.
lint-fixtures:
	go test -timeout 10m ./internal/lint/

# The strictest static gate the repo has (used by the CI lint job):
# gofmt cleanliness, the full vet suite, then the repo's own analyzer.
vet-strict:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/graphiolint ./...

test:
	go vet ./...
	go test ./...

test-race:
	go test -race ./...

cover:
	go test -cover ./internal/...

bench:
	go test -bench=. -benchmem -benchtime=1x .

# Real benchmark timings (not the 1x smoke run) as machine-readable JSON:
# name -> {ns_per_op, allocs_per_op, ...} for regression tracking across PRs.
bench-json:
	go test -bench=. -benchmem -benchtime=3x . | go run ./cmd/benchjson -o BENCH_PR1.json

# CI regression gate: run the benchmarks fresh and diff the timings against
# the committed BENCH_PR1.json baseline. Exits non-zero if any ns_per_op
# regressed by more than 20% (see cmd/obsreport -fail-over). The current
# run goes to a private temp file that the recipe removes on exit.
bench-check:
	cur="$$(mktemp)"; trap 'rm -f "$$cur"' EXIT; \
	go test -bench=. -benchmem -benchtime=3x . | go run ./cmd/benchjson -o "$$cur" && \
	go run ./cmd/obsreport -fail-over 20 BENCH_PR1.json "$$cur"

# Dense-path kernel microbenchmarks (tred2, tql2, SymEigValues at n = 256,
# 512, 1024), one iteration each so they always compile and run; each
# reports GFLOP/s as 4n³/3 ÷ time. Raise -benchtime for real timings.
bench-kernels:
	go test -run '^$$' -bench . -benchtime 1x ./internal/linalg

# Multi-run trend ledger: run the benchmarks, append this run (git rev,
# platform, ns/op per benchmark) to results/bench_history.jsonl, then
# compare the latest run against the median of the prior runs. Exits
# non-zero when any benchmark regressed more than 20% against that median;
# harmless on the first run (nothing to compare against yet). As in
# bench-check, the current run's JSON is a temp file removed on exit.
bench-history:
	cur="$$(mktemp)"; trap 'rm -f "$$cur"' EXIT; \
	go test -bench=. -benchmem -benchtime=3x . | go run ./cmd/benchjson -o "$$cur" -history results/bench_history.jsonl && \
	go run ./cmd/obsreport trend -fail-over 20 results/bench_history.jsonl

experiments:
	go run ./cmd/experiments -profile default -out results

experiments-quick:
	go run ./cmd/experiments -profile quick

# Crash-consistency gate: short sweep, SIGKILL between experiment commits,
# resume, require byte-identical artifacts versus an uninterrupted run.
verify-resume:
	sh scripts/verify_resume.sh

# Distributed chaos gate: coordinator + three workers (one SIGKILLed
# mid-shard, one stalled past lease expiry), coordinator SIGKILLed and
# restarted with -resume; the merged artifacts must be byte-identical to
# a single-process sweep and the manifest must still resume cleanly.
verify-dist:
	sh scripts/verify_dist.sh

# Daemon chaos gate: graphiod SIGKILLed with jobs in flight, restarted on
# the same data dir; the WAL replay must finish every accepted job, a
# resubmission must be a byte-identical cache hit, an unmeetable deadline
# must fail typed while siblings complete, and SIGTERM must drain cleanly.
verify-graphiod:
	sh scripts/verify_graphiod.sh

examples:
	go run ./examples/quickstart
	go run ./examples/fft -max-l 9
	go run ./examples/tsp -cities 10
	go run ./examples/tracer -size 48
	go run ./examples/parallel
	go run ./examples/hierarchy -graph-level 7

fmt:
	gofmt -w .
