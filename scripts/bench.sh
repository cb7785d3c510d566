#!/usr/bin/env bash
# Performance record: runs the signature micro-benchmarks, the exhibit
# regeneration benchmarks, and the end-to-end core run benchmarks, and
# rewrites BENCH_sig.json / BENCH_exhibits.json / BENCH_core.json at the
# repo root. Each JSON carries the committed pre-optimization capture
# (bench/baseline/*.txt) as "baseline" next to the fresh "current" numbers,
# so before/after is always visible in one file.
#
# Usage: scripts/bench.sh
#   BENCHTIME=5x COUNT=3 scripts/bench.sh   # override the per-bench budget
#
# BENCHTIME feeds -benchtime for the exhibit and core sections (default 1x:
# one full regeneration / one full run per benchmark); COUNT feeds -count
# everywhere (default 1).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
COUNT="${COUNT:-1}"

# Every BENCH_*.json records gomaxprocs/numcpu (benchjson stamps them), but
# say it up front too: -workers sweeps measure goroutine scheduling, not
# parallel speedup, when the host has a single core — treat the w2/w4/w8
# rows as determinism checks there, not as scaling numbers.
NCPU="$(nproc 2>/dev/null || echo 1)"
echo "bench.sh: host has $NCPU CPU(s) visible; GOMAXPROCS defaults to that"
if [ "$NCPU" -le 1 ]; then
  echo "!!================================================================!!"
  echo "!! bench.sh: SINGLE-CORE HOST — the CheckExplore -workers sweep   !!"
  echo "!! (w2/w4/w8) cannot show parallel speedup here. Those rows only  !!"
  echo "!! prove determinism and bound the coordination overhead; read    !!"
  echo "!! scaling claims from a multi-core capture.                      !!"
  echo "!!================================================================!!"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# emit_json RAW BASELINE NOTE OUT — convert a raw capture to committed JSON,
# failing the whole script loudly when benchjson cannot parse the capture
# (an empty or mangled capture must never overwrite the record silently).
emit_json() {
  if ! go run ./cmd/benchjson -baseline "$2" -note "$3" < "$1" > "$4"; then
    echo "bench.sh: benchjson could not parse $1 (wanted for $4)" >&2
    exit 1
  fi
}

echo "== signature kernel micro-benchmarks (internal/sig) =="
go test ./internal/sig/ -run '^$' -bench '.' -benchmem -count "$COUNT" | tee "$tmp/sig.txt"
emit_json "$tmp/sig.txt" bench/baseline/sig.txt \
  "internal/sig kernels; baseline = pre gather-table/zero-alloc rewrite" \
  BENCH_sig.json

echo
echo "== exhibit regeneration benchmarks (one full run per exhibit) =="
go test . -run '^$' -bench 'Figure|Table|Ablation|Ext' \
  -benchtime "$BENCHTIME" -benchmem -count "$COUNT" | tee "$tmp/exhibits.txt"
emit_json "$tmp/exhibits.txt" bench/baseline/exhibits.txt \
  "wall-clock per exhibit regeneration; baseline = serial engine before internal/par" \
  BENCH_exhibits.json

echo
echo "== end-to-end core run benchmarks (tm / tls / ckpt) =="
go test . -run '^$' -bench 'TMRun|TLSRun|CkptRun' \
  -benchtime "$BENCHTIME" -benchmem -count "$COUNT" | tee "$tmp/core.txt"
emit_json "$tmp/core.txt" bench/baseline/core.txt \
  "end-to-end simulation runs; baseline = map-backed core before internal/flatmap and occupancy-filtered bulk operations" \
  BENCH_core.json

echo
echo "== schedule-exploration throughput (serial vs work-stealing workers) =="
go test . -run '^$' -bench 'CheckExplore' \
  -benchtime "$BENCHTIME" -benchmem -count "$COUNT" | tee "$tmp/check.txt"
emit_json "$tmp/check.txt" bench/baseline/check.txt \
  "medium-budget exploration per sweep target at 1/2/4/8 workers; baseline = work-stealing explorer replaying every schedule from the root, before pooled runners and fork-point snapshot/resume" \
  BENCH_check.json

echo
echo "== static-analysis suite benchmarks (internal/lint) =="
go test ./internal/lint/ -run '^$' -bench 'LintModule|InferEffects' \
  -benchmem -count "$COUNT" | tee "$tmp/lint.txt"
emit_json "$tmp/lint.txt" bench/baseline/lint.txt \
  "full bulklint suite and effect-inference fixpoint over the module; baseline = capture at the effect-engine introduction" \
  BENCH_lint.json

echo
echo "bench.sh: wrote BENCH_sig.json, BENCH_exhibits.json, BENCH_core.json, BENCH_check.json and BENCH_lint.json"
