#!/usr/bin/env sh
# Writes the benchmark ledger: builds the five ledger benches in Release,
# runs each once, writes its google-benchmark JSON to BENCH_<lane>.json at
# the repository root (a3, s5, survey, portal, multipool), and checks the
# result with tools/check_bench.py, which prints every host-independent
# invariant and every pinned sim-clock counter. Each bench stamps its own
# provenance (git sha, build type, SIMD width, hardware threads) into the
# JSON context; this script also requires the recorded num_cpus to equal
# nproc. BENCH_s5.json carries the campaign's metrics snapshot under
# "metrics". Wall-clock speed is judged by perfbench's parent/change pairs,
# not here. The survey lane takes a few minutes.
#
# Usage: tools/run_bench.sh
#   BUILD_DIR=<dir>   Release build tree (default: <repo>/build-release)
set -e

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-release}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$(nproc)" \
  --target bench_a3_morphology_kernel --target bench_s5_campaign \
  --target bench_survey --target bench_portal --target bench_multipool

METRICS_TMP="$(mktemp)"
S5_TMP="$(mktemp)"
trap 'rm -f "$METRICS_TMP" "$S5_TMP"' EXIT

run() {  # run <lane> <binary> [flags...]: one run -> BENCH_<lane>.json
  lane="$1"
  bin="$2"
  shift 2
  echo "=== $bin -> BENCH_$lane.json ==="
  "$BUILD/bench/$bin" "$@" \
    --benchmark_out="$ROOT/BENCH_$lane.json" --benchmark_out_format=json
}

run a3 bench_a3_morphology_kernel
NVO_S5_SCALE=0.1 NVO_S5_METRICS_OUT="$METRICS_TMP" \
  run s5 bench_s5_campaign --benchmark_min_time=0.5
run survey bench_survey
run portal bench_portal
run multipool bench_multipool

# The campaign's MetricsRegistry snapshot rides along in BENCH_s5.json: drop
# the closing brace of the run's JSON object and append the "metrics" key.
mv "$ROOT/BENCH_s5.json" "$S5_TMP"
{
  sed '$d' "$S5_TMP"
  printf ',\n"metrics": '
  cat "$METRICS_TMP"
  printf '\n}\n'
} > "$ROOT/BENCH_s5.json"

python3 "$ROOT/tools/check_bench.py" "$ROOT"/BENCH_a3.json "$ROOT"/BENCH_s5.json \
  "$ROOT"/BENCH_survey.json "$ROOT"/BENCH_portal.json "$ROOT"/BENCH_multipool.json

cpus="$(sed -n 's/.*"num_cpus": *\([0-9]*\).*/\1/p' "$ROOT/BENCH_a3.json")"
if [ "$cpus" != "$(nproc)" ]; then
  echo "FAIL: the ledger records num_cpus=$cpus but nproc is $(nproc)" >&2
  exit 1
fi
echo "OK: num_cpus $cpus matches nproc"
