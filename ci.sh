#!/usr/bin/env bash
# ci.sh — the repository's full check suite. Run it from anywhere; it cds to
# the repo root. Fails fast on the first broken stage.
#
#   formatting   gofmt -l over all tracked Go files
#   analysis     go vet ./...; staticcheck when installed (gating)
#   build        go build ./...
#   tests        go test ./...
#   perfbench      go vet and go test in the nested perfbench module, which
#                  go test ./... from the root skips: the benchmark still
#                  builds against this tree's packages, its metric lists
#                  match BENCHMARK.json, both ledger closures hold and a
#                  run whose check is made to fail does fail (about 10 s;
#                  local toolchain, no module downloads)
#   race           go test -race over the concurrency-critical packages
#                  (collector, core, obs — metrics and trace recording race
#                  live scrapes by design — plus the rrserver collection
#                  service, its SDK, the sketch scheme and rr, whose
#                  matrices lazily build the sampler tables and the
#                  inversion factorization that concurrent disguises and
#                  estimates share) and the worker-parallel paths
#                  (experiment grid, batch sampling, multi-attribute
#                  Disguise sharing each matrix's sampler tables); the island
#                  scheduler and the collector's concurrency tests
#                  (multi-shard ingest, Merge and snapshots racing queries,
#                  writers, dense and sketch schemes) additionally run under
#                  -cpu 1,4 to exercise both the single-P and multi-P
#                  schedules
#   fuzz smoke     short -fuzz bursts on the sketch hash→disguise→debias
#                  round trip (estimates stay finite and near-normalized for
#                  arbitrary parameters, the full-domain scan equals
#                  one-category point queries bit for bit, and Hash equals
#                  a Div64 reference), on the scheme-envelope decoder
#                  (every input is rejected as rr.ErrBadScheme, or
#                  encoding/json reads it as the same scheme and it
#                  round-trips to the same scheme version), on the collector
#                  snapshot decoder (every input is rejected as
#                  ErrBadSnapshot, or encoding/json reads it as the same
#                  scheme, counts and total and it round-trips to the same
#                  counts and scheme version), on the GET /v1/scheme body
#                  decoder (every body it accepts, the SDK's encoding/json
#                  path reads as the same scheme, version and z) and on the
#                  rrapi batch-body codec (every body it accepts,
#                  encoding/json reads as the same reports; its encoding
#                  equals json.Marshal and round-trips), on SPEA2
#                  fitness assignment over 2–6 objectives (a warm Scratch
#                  equals a fresh one and the reference implementation bit
#                  for bit), on the Kronecker contraction kernels
#                  (MulVecInto and the fused sum/max product equal the
#                  row-axpy oracle bit for bit for 1–4 factors of size 1–7)
#                  and on the single-attribute evaluation workspace
#                  (Evaluate, EvaluateWithin and the package-level metrics
#                  equal the formula-by-formula test oracle bit for bit on
#                  matrices and priors of order 2–9 built from the input)
#   results        the whole paper reproduction: cmd/experiments at its
#                  default budget (about 40 s) regenerates every CSV into a
#                  temporary directory, every shape check must pass, and the
#                  set must equal the committed results/*.csv byte for byte
#                  (no file missing, extra or different)
#   bench smoke    the BenchmarkOptimize trio (baseline, traced, island
#                  scaling) plus the hot-path micro-benchmarks (fused
#                  evaluation, extra-objective evaluation, Kronecker-factored
#                  vs dense joint evaluation, the multi-attribute search,
#                  SPEA2 scratch — 2-D and k-dimensional — bound repair,
#                  batch disguise, convergence-snapshot emission, histogram
#                  quantiles) and
#                  the collector contention matrix with the batched writer,
#                  parallel ingest, the full-domain heavy-hitter scan and
#                  the 8-category point query over a count-mean sketch, the
#                  rrapi batch-body codec
#                  against encoding/json (1000-report encode and decode), the
#                  rrserver HTTP batch-ingest path (with its p99 batch
#                  latency as a custom metric) and a sketch service's boot
#                  (snapshot restore, first scheme fetch and one snapshot,
#                  each as a custom metric), at pinned -benchtime/-count
#                  with -benchmem, all rendered into the untracked
#                  BENCH_new.json
#   bench compare  gating diff of BENCH_new.json against the committed
#                  BENCH_optimize.json via cmd/benchdiff: fails the suite on
#                  a >25% ns/op (5% allocs/op, 10% B/op) regression unless
#                  BENCH_ALLOW_REGRESS=1 lets it pass. The suite never
#                  rewrites BENCH_optimize.json; a new floor is pinned by
#                  copying BENCH_new.json over it and committing that on
#                  purpose
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
# Not part of the baked toolchain; gating when available (the clean state is
# maintained, so any finding is a real defect), skipped when not installed.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping"
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== perfbench (nested module: vet + its own tests) =="
GOFLAGS= GOPROXY=off GOTOOLCHAIN=local go -C perfbench vet ./...
GOFLAGS= GOPROXY=off GOTOOLCHAIN=local go -C perfbench test ./...

echo "== go test -race (collector, core, obs, rrserver, sketch, rr) =="
go test -race ./internal/collector ./internal/core ./internal/obs \
    ./internal/rrserver ./internal/rrclient ./internal/sketch ./internal/rr

echo "== go test -race -cpu 1,4 (islands, collector concurrency, joint evaluation) =="
go test -race -cpu 1,4 -run 'Island|Sharded|Writer|Contention|Race|Concurrent|Multi|Joint|Sketch' \
    ./internal/core ./internal/collector ./internal/metrics

echo "== go test -race (parallel paths) =="
go test -race -run 'Parallel|Grid|Batch|Stream|Tuple' \
    ./internal/experiments ./internal/dataset ./internal/mining

echo "== fuzz smoke (sketch round trip, scheme envelope, snapshot decoder, scheme body, batch codec, SPEA2 fitness, Kronecker contraction, evaluation workspace) =="
go test -run '^$' -fuzz '^FuzzCMSRoundTrip$' -fuzztime 5s ./internal/sketch
go test -run '^$' -fuzz '^FuzzUnmarshalScheme$' -fuzztime 5s ./internal/sketch
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 5s ./internal/collector
go test -run '^$' -fuzz '^FuzzDecodeSchemeResponse$' -fuzztime 5s ./internal/rrapi
go test -run '^$' -fuzz '^FuzzBatchCodec$' -fuzztime 5s ./internal/rrapi
go test -run '^$' -fuzz '^FuzzAssignFitnessKDim$' -fuzztime 5s ./internal/emoo
go test -run '^$' -fuzz '^FuzzKronContract$' -fuzztime 5s ./internal/matrix
go test -run '^$' -fuzz '^FuzzWorkspaceEvaluate$' -fuzztime 5s ./internal/metrics

echo "== results (paper reproduction, byte for byte) =="
repro=$(mktemp -d)
trap 'rm -rf "$repro"' EXIT
if ! go run ./cmd/experiments -csv "$repro/csv" > "$repro/log" 2>&1; then
    cat "$repro/log" >&2
    echo "experiments failed; see the log above" >&2
    exit 1
fi
# summary.txt is the run's printed report, with wall times; only the CSVs
# are reproducible.
diff -r --exclude=summary.txt results "$repro/csv"

echo "== bench smoke =="
# Iteration counts are pinned (-benchtime=Nx -count=1) so runs are
# comparable: allocation counts become exactly reproducible and wall-time
# noise is bounded by the fixed workload.
go test -run '^$' -bench '^BenchmarkOptimize' -benchtime=3x -count=1 -benchmem . | tee BENCH_optimize.txt
go test -run '^$' -bench '^(BenchmarkEvaluate|BenchmarkMaxPosterior|BenchmarkEvaluateExtraObjectives)$' -benchtime=2000x -count=1 -benchmem ./internal/metrics | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkJointEvaluate$' -benchtime=200x -count=1 -benchmem ./internal/metrics | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkOptimizeMulti$' -benchtime=3x -count=1 -benchmem ./internal/core | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^(BenchmarkAssignFitness|BenchmarkTruncate|BenchmarkAssignFitnessK3)$' -benchtime=50x -count=1 -benchmem ./internal/emoo | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^(BenchmarkRepair|BenchmarkRealizeSteadyState|BenchmarkConvergenceSnapshot)$' -benchtime=2000x -count=1 -benchmem ./internal/core | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkHistogramQuantiles$' -benchtime=2000x -count=1 -benchmem ./internal/obs | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkDisguise$' -benchtime=20x -count=1 -benchmem ./internal/rr | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkCollectorContention' -benchtime=100000x -count=1 -benchmem ./internal/collector | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkSketchIngest$' -benchtime=100000x -count=1 -benchmem ./internal/collector | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkHeavyHitters$' -benchtime=20x -count=1 -benchmem ./internal/collector | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkSketchPointQuery$' -benchtime=200x -count=1 -benchmem ./internal/collector | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkBatchCodec$' -benchtime=2000x -count=1 -benchmem ./internal/rrapi | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkServerIngest$' -benchtime=100000x -count=1 -benchmem ./internal/rrserver | tee -a BENCH_optimize.txt
go test -run '^$' -bench '^BenchmarkServerBootSketch$' -benchtime=10x -count=1 -benchmem ./internal/rrserver | tee -a BENCH_optimize.txt
# Render the benchmark lines ("BenchmarkName  iters  value unit ...") as a
# JSON array so downstream tooling can diff runs.
awk '
BEGIN { printf "[" }
/^Benchmark/ {
    if (n++) printf ","
    printf "{\"name\":\"%s\",\"iterations\":%s", $1, $2
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9_@.\/-]/, "", unit)
        printf ",\"%s\":%s", unit, $i
    }
    printf "}"
}
END { printf "]\n" }
' BENCH_optimize.txt > BENCH_new.json
rm -f BENCH_optimize.txt

echo "== bench compare (gating) =="
# The committed BENCH_optimize.json is only ever read here: every run
# compares against the same floor, and the fresh numbers stay in the
# untracked BENCH_new.json.
if [ -f BENCH_optimize.json ]; then
    if ! go run ./cmd/benchdiff BENCH_optimize.json BENCH_new.json; then
        if [ "${BENCH_ALLOW_REGRESS:-0}" = "1" ]; then
            echo "bench regression let through (BENCH_ALLOW_REGRESS=1); BENCH_optimize.json unchanged" >&2
            echo "to pin the new floor: cp BENCH_new.json BENCH_optimize.json, and commit it" >&2
        else
            echo "bench regression vs committed baseline; fresh run kept in BENCH_new.json" >&2
            echo "re-run with BENCH_ALLOW_REGRESS=1 ./ci.sh to let it pass, or pin the new floor with cp BENCH_new.json BENCH_optimize.json" >&2
            exit 1
        fi
    fi
else
    echo "no committed baseline; skipping"
fi
echo "bench results: BENCH_new.json (BENCH_optimize.json is the committed floor)"

echo "== ci OK =="
