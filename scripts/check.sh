#!/usr/bin/env bash
# Full verification gate: build, vet, bulklint, race-enabled tests.
# Run from anywhere; operates on the module root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Every tracked Go file must be gofmt-clean.
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt: these files need formatting (run gofmt -w):" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== bulklint =="
# One run of every analyzer, including the waiver audit: a stale
# //bulklint: waiver (one that suppresses no live finding) fails the gate.
# Finding order is pinned by TestFindingsGoldenDeterministic and
# TestFindingsTotalOrder.
go run ./cmd/bulklint ./...

echo "== go test -race =="
# ./... includes internal/par and the parallel experiment engine, so the
# race stage exercises the fan-out worker pool on every run.
go test -race ./...

echo "== fault-injection matrix =="
# Plant every fault in cmd/faultmatrix/matrix.txt into a scratch copy of
# the tree and run every guard against it: each bulklint rule and each
# test guard kept must still catch the rows it is listed for.
go run ./cmd/faultmatrix

echo "== bench harness smoke (-benchtime=1x) =="
# One iteration of each end-to-end run benchmark, so the go test
# benchmarks stay runnable. They are developer tools with no committed
# record; the benchmark of record is cmd/bulkbench.
go test . -run '^$' -bench 'TMRun|TLSRun|CkptRun' -benchtime 1x
# The lint-suite benchmarks, which the wall-time ratchet below reads
# against bench/baseline/lint.txt, must keep running too.
go test ./internal/lint/ -run '^$' -bench 'LintModule|InferEffects' -benchtime 1x
# One serial and one parallel iteration of the explorer-throughput
# benchmark: a medium-budget sweep on pooled runners, each resetting its
# system in place before every schedule, end to end.
go test . -run '^$' -bench 'CheckExplore/tm-sweep/(w1|w4)$' -benchtime 1x
# The layer kernels under them: signature membership and the L1 tag match.
go test ./internal/sig/ -run '^$' -bench '^Benchmark(Add|Contains)$' -benchtime 1x
go test ./internal/cache/ -run '^$' -bench '^BenchmarkLookup$' -benchtime 1x

echo "== lint-suite wall-time ratchet =="
# The suite's cost must not blow up: the full BenchmarkLintModule run (all
# ten analyzers) has to stay under 2x the committed baseline in
# bench/baseline/lint.txt, captured when the suite had eleven.
lint_base_ns=$(awk '/^BenchmarkLintModule/ { print $3; exit }' bench/baseline/lint.txt)
lint_now_ns=$(go test ./internal/lint/ -run '^$' -bench 'LintModule$' \
  | awk '/^BenchmarkLintModule/ { print $3; exit }')
if [ -z "$lint_base_ns" ] || [ -z "$lint_now_ns" ]; then
  echo "lint ratchet: could not read a BenchmarkLintModule ns/op figure" >&2
  exit 1
fi
if awk -v now="$lint_now_ns" -v base="$lint_base_ns" 'BEGIN { exit !(now > 2 * base) }'; then
  echo "lint ratchet: LintModule at ${lint_now_ns} ns/op exceeds 2x the ${lint_base_ns} ns/op baseline" >&2
  exit 1
fi
echo "lint ratchet: ${lint_now_ns} ns/op vs ${lint_base_ns} ns/op baseline (2x ceiling)"

echo "== coverage gate =="
# Per-package statement-coverage floors for the core, the runtimes and the
# model checker, set just under their measured values so coverage can only
# ratchet up. Raise a floor when you raise the coverage.
check_cover() {
  local pkg="$1" floor="$2"
  local line pct
  line=$(go test -cover "./internal/$pkg/" | tail -1)
  pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
  if [ -z "$pct" ]; then
    echo "coverage gate: no coverage figure for $pkg: $line" >&2
    exit 1
  fi
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "coverage gate: $pkg at ${pct}% is below the ${floor}% floor" >&2
    exit 1
  fi
  echo "coverage $pkg: ${pct}% (floor ${floor}%)"
}
check_cover core 97
check_cover tm 89
check_cover tls 89
check_cover ckpt 91
check_cover check 88
check_cover serve 85

echo "== bulkcheck smoke =="
# A small exhaustive sweep of every protocol must stay oracle-clean — and
# produce the identical report on a work-stealing worker pool — and every
# seeded protocol mutation must still be killed, serially and in parallel.
bc_tmp="$(mktemp -d)"
trap 'rm -rf "$bc_tmp"' EXIT
go build -o "$bc_tmp/bulkcheck" ./cmd/bulkcheck
"$bc_tmp/bulkcheck" -budget small -v | tee "$bc_tmp/serial.out"
"$bc_tmp/bulkcheck" -budget small -workers 4 -v > "$bc_tmp/parallel.out"
if ! cmp -s "$bc_tmp/serial.out" "$bc_tmp/parallel.out"; then
  echo "bulkcheck: parallel sweep report differs from serial" >&2
  diff "$bc_tmp/serial.out" "$bc_tmp/parallel.out" >&2 || true
  exit 1
fi
"$bc_tmp/bulkcheck" -mutations all -workers 4

echo "== bulkcheck single-target budget =="
# One target under an explicit schedule budget, through the CLI's -target
# and -schedules: the report must not depend on the worker count.
"$bc_tmp/bulkcheck" -target tm-sweep -budget small -schedules 400 -v \
  -workers 1 > "$bc_tmp/target_w1.out"
"$bc_tmp/bulkcheck" -target tm-sweep -budget small -schedules 400 -v \
  -workers 8 > "$bc_tmp/target_w8.out"
cat "$bc_tmp/target_w1.out"
if ! cmp -s "$bc_tmp/target_w1.out" "$bc_tmp/target_w8.out"; then
  echo "bulkcheck: -target sweep report differs between 1 and 8 workers" >&2
  diff "$bc_tmp/target_w1.out" "$bc_tmp/target_w8.out" >&2 || true
  exit 1
fi

echo "== bulkd smoke (daemon vs one-shot byte identity) =="
# The daemon's acceptance claim end to end: a live bulkd must answer each
# job kind with bytes identical to the one-shot CLIs, serve /metrics, and
# shut down cleanly on SIGTERM.
go build -o "$bc_tmp/bulkd" ./cmd/bulkd
go build -o "$bc_tmp/bulksim" ./cmd/bulksim
"$bc_tmp/bulkd" -addr 127.0.0.1:0 -workers 2 > "$bc_tmp/bulkd.log" 2>&1 &
bulkd_pid=$!
trap 'kill "$bulkd_pid" 2>/dev/null || true; rm -rf "$bc_tmp"' EXIT
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^bulkd: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$bc_tmp/bulkd.log")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "bulkd smoke: daemon never reported its listen address" >&2
  cat "$bc_tmp/bulkd.log" >&2
  exit 1
fi
base="http://127.0.0.1:$port"
curl -fsS "$base/healthz" > /dev/null

# Exhibit job vs `bulksim -exp table8 -quick -notime`.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"exhibit","exhibit":"table8","quick":true}' > "$bc_tmp/d_exhibit.out"
"$bc_tmp/bulksim" -exp table8 -quick -notime > "$bc_tmp/c_exhibit.out"
if ! cmp -s "$bc_tmp/d_exhibit.out" "$bc_tmp/c_exhibit.out"; then
  echo "bulkd smoke: exhibit response differs from bulksim -notime" >&2
  diff "$bc_tmp/d_exhibit.out" "$bc_tmp/c_exhibit.out" >&2 || true
  exit 1
fi

# Full sweep job vs `bulksim -exp all -quick -notime` — every exhibit, the
# blank-line section framing, and the cross-simulation meter trailer.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"sweep","quick":true}' > "$bc_tmp/d_sweep.out"
"$bc_tmp/bulksim" -exp all -quick -notime > "$bc_tmp/c_sweep.out"
if ! cmp -s "$bc_tmp/d_sweep.out" "$bc_tmp/c_sweep.out"; then
  echo "bulkd smoke: sweep response differs from bulksim -exp all -notime" >&2
  diff "$bc_tmp/d_sweep.out" "$bc_tmp/c_sweep.out" >&2 || true
  exit 1
fi

# Check job vs `bulkcheck -protocol tls -budget small -v`.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"check","protocol":"tls","budget":"small","verbose":true}' > "$bc_tmp/d_check.out"
"$bc_tmp/bulkcheck" -protocol tls -budget small -v > "$bc_tmp/c_check.out"
if ! cmp -s "$bc_tmp/d_check.out" "$bc_tmp/c_check.out"; then
  echo "bulkd smoke: check response differs from bulkcheck" >&2
  diff "$bc_tmp/d_check.out" "$bc_tmp/c_check.out" >&2 || true
  exit 1
fi

# Cached replay: the exhibit repeats inside the sweep above, so this third
# request is served from cache — the bytes must not change, and /metrics
# must confirm the cache actually fired.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"exhibit","exhibit":"table8","quick":true}' > "$bc_tmp/d_cached.out"
if ! cmp -s "$bc_tmp/d_cached.out" "$bc_tmp/c_exhibit.out"; then
  echo "bulkd smoke: cached replay differs from the fresh response" >&2
  exit 1
fi
curl -fsS "$base/metrics" > "$bc_tmp/metrics.json"
if ! jq -e '.result_cache.hits >= 1 and .jobs.completed >= 4 and .queue.workers == 2' \
    "$bc_tmp/metrics.json" > /dev/null; then
  echo "bulkd smoke: /metrics is missing expected cache/job counters:" >&2
  cat "$bc_tmp/metrics.json" >&2
  exit 1
fi

# SIGTERM must drain and exit 0 with the clean-shutdown line.
kill -TERM "$bulkd_pid"
if ! wait "$bulkd_pid"; then
  echo "bulkd smoke: daemon exited nonzero after SIGTERM" >&2
  cat "$bc_tmp/bulkd.log" >&2
  exit 1
fi
trap 'rm -rf "$bc_tmp"' EXIT
if ! grep -q 'drained cleanly' "$bc_tmp/bulkd.log"; then
  echo "bulkd smoke: no clean-drain confirmation in the daemon log" >&2
  cat "$bc_tmp/bulkd.log" >&2
  exit 1
fi

echo "== native fuzz smoke (5s per target) =="
# The three runtimes and the exact footprint they share (against a
# map-of-words model); the workload layout determinism target the daemon's
# result cache leans on (cache keys assume identical (seed, config) inputs
# regenerate identical bytes); bulkd's request decoding; and the RLE
# decoder commit broadcasts pass through. The decoders must reject hostile
# input without panicking. Last, the signature permutation kernel against
# its per-bit definition over drawn layouts.
for target in internal/tm:FuzzTMSchemes internal/tls:FuzzTLSSchemes \
    internal/ckpt:FuzzCkptModes internal/core:FuzzFootprint \
    internal/workload:FuzzWorkloadLayout internal/serve:FuzzDecodeRequest \
    internal/sig:FuzzRLDecode internal/sig:FuzzFieldValues; do
  pkg="${target%%:*}"
  fz="${target##*:}"
  go test "./$pkg/" -run '^$' -fuzz "^${fz}\$" -fuzztime 5s
done

echo "check.sh: all stages passed"
