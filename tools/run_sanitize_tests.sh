#!/usr/bin/env sh
# Builds the tree with AddressSanitizer + UBSan into build-asan/ and runs the
# resilience-facing test lane (retry/breaker/failover unit tests, fabric
# metrics, the chaos campaign suite, the digest/quarantine integrity tests,
# the checkpoint-journal tests in grid_test, the replica-cache/data-plane
# tests, the FITS codec and render-key tests in image_test/sim_test, and the
# morphology kernel's equivalence, unit and allocation tests, the
# VOTable/XML reader and string-parsing tests, and the sky coordinate and
# cosmology tests, and the ten paper-figure experiments labelled
# `experiments`) under the instrumented binaries, then repeats the
# concurrency-facing lane (sharded cache + pipelined staging + concurrent
# journal appends) under ThreadSanitizer in build-tsan/.
#
# Usage: tools/run_sanitize_tests.sh [ctest -R regex]
#   default regex: bench_table1|bench_fig|bench_a1|bench_a2|resilience_test|chaos_test|services_test|replica_cache_test|data_plane_test|obs_test|observability_test|integrity_test|grid_test|soa_kernel_test|survey_test|async_portal_test|dataflow_test|multipool_test|lifecycle_test|portal_test|image_test|sim_test|kernel_equivalence_test|core_test|kernel_alloc_test|vds_test|pegasus_test|property_test|workflow_golden_test|analysis_test|votable_test|common_test|sky_test
#   BUILD_DIR=<dir>       ASan build tree (default: <repo>/build-asan)
#   TSAN_BUILD_DIR=<dir>  TSan build tree (default: <repo>/build-tsan)
#   NVO_SKIP_TSAN=1       run only the ASan phase
set -e

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-asan}"
TSAN_BUILD="${TSAN_BUILD_DIR:-$ROOT/build-tsan}"
REGEX="${1:-bench_table1|bench_fig|bench_a1|bench_a2|resilience_test|chaos_test|services_test|replica_cache_test|data_plane_test|obs_test|observability_test|integrity_test|grid_test|soa_kernel_test|survey_test|async_portal_test|dataflow_test|multipool_test|lifecycle_test|portal_test|image_test|sim_test|kernel_equivalence_test|core_test|kernel_alloc_test|vds_test|pegasus_test|property_test|workflow_golden_test|analysis_test|votable_test|common_test|sky_test}"
# obs_test/observability_test drive the traced portal pipeline through the
# kernel thread pool, and grid_test appends to the checkpoint journal from a
# thread pool, so they belong in the TSan lane too. soa_kernel_test runs
# galMorph jobs that decode into a per-thread frame on shared pools of 1, 2
# and 4 workers, and survey_test
# fans the survey compute phase across a pool, so both join the TSan lane
# (with the survey's big byte-identity case dialed down — TSan is ~10x).
# async_portal_test joins both lanes: the portal itself is single-threaded,
# but its pipelines run the compute kernel on a pool, and the replica-cache
# eviction-callback races it asserts are exactly what TSan checks.
# dataflow_test joins both lanes: the streaming catalog merge takes marks
# from pool threads and the DAGMan callback concurrently, and its
# submit-during-drain / destructor-resubmission cases target exactly the
# ThreadPool lost-wakeup and shutdown-while-pending hazards.
# multipool_test joins both lanes: the outage/rescue campaign cases drive the
# full pipelined service (kernel pool + staging channels) through whole-pool
# failure, re-mapping, and work stealing — the new code paths this lane
# exists to shake down.
# lifecycle_test joins both lanes: cancellation flips a token on the portal
# thread while pool workers dequeue cancellable tasks, and the mid-stage-in
# cancel unwinds staging channels concurrently with running kernels — the
# cancel/cleanup races are exactly what TSan exists to catch, and the
# leak-freedom assertions (inflight gauges back to zero) are what LeakSanitizer
# cross-checks in the ASan lane.
# portal_test joins the ASan lane only: one Fig. 5 stage machine
# (Portal::advance) now owns every table move between stages for both the
# sync and the async driver, and its cancelled/failed terminal paths leave
# half-built runs behind — use-after-move and leaks there are what ASan and
# UBSan catch. Its only concurrency is the compute kernel pool, which
# async_portal_test and observability_test already cover in the TSan lane.
# image_test and sim_test join the ASan lane only: the FITS writer encodes
# pixels with bulk byteswap stores into an exactly reserved buffer, the
# reader rejects hostile NAXIS/BITPIX values before sizing the image, and
# the digest in integrity_test reads its input as unaligned 64-bit words —
# out-of-bounds stores, integer overflow and bad casts there are UBSan and
# ASan territory. sim_test also covers the render key's precomputed
# population hash. Neither test starts threads.
# kernel_equivalence_test, core_test and kernel_alloc_test join the ASan lane
# only: companion masking labels row runs with union-find index arithmetic
# into reserved buffers, and the kernel's vector-lane loops load four
# elements at a time with scalar heads and tails, so an index one past a
# run, a row or an interval is exactly what ASan and UBSan catch. The
# sanitized build also compiles the kernel at different optimization
# settings, so kernel_equivalence_test's pinned output digest re-checks that
# code generation moves no bit. None of the three starts threads.
# vds_test, pegasus_test, property_test and workflow_golden_test join the
# ASan lane only: the DAG, Chimera, the planner and the executor now index
# nodes, sites and hash slots by position, so an index past the end is ASan
# and UBSan territory.
# analysis_test joins the ASan lane only: the Dressler k-NN density walks
# rings of grid cells through offset arrays, and its tests drive the grid
# through degenerate shapes (one column, stacked duplicates, far
# outliers, k above the sample) where a ring or slab index could run off
# an edge.
# votable_test and common_test join the ASan lane only: every fabric
# response a client parses goes through the VOTable/XML reader, and
# common/strings (parse_double, split, append_fixed) reads archive and
# client text; an index past a buffer or a bad numeric cast there is ASan
# and UBSan territory. Neither test starts threads.
# sky_test joins the ASan lane only: the cosmology's Simpson sum computes
# its terms in four-wide vector registers with a scalar tail, so a lane
# index or a tail bound past the segment count is UBSan territory, and its
# bit pin against the scalar loop re-checks the vector path at the
# sanitized build's optimization settings. It starts no threads.
# The `experiments` label (bench_table1_federation, bench_fig1..7,
# bench_a1, bench_a2) joins the ASan lane only: these programs drive the
# planner, DAGMan, the portal and the Dressler analysis on paper-scale
# inputs that no unit test reaches, in about 3.5 s unsanitized. F7 writes
# its composite into the build tree, its working directory.
TSAN_REGEX="${TSAN_REGEX:-replica_cache_test|data_plane_test|obs_test|observability_test|grid_test|soa_kernel_test|survey_test|async_portal_test|dataflow_test|multipool_test|lifecycle_test}"

cmake -B "$BUILD" -S "$ROOT" -DNVO_SANITIZE="address;undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j --target \
      resilience_test chaos_test services_test replica_cache_test data_plane_test \
      obs_test observability_test integrity_test grid_test soa_kernel_test \
      survey_test async_portal_test dataflow_test multipool_test lifecycle_test \
      portal_test image_test sim_test kernel_equivalence_test core_test kernel_alloc_test \
      vds_test pegasus_test property_test workflow_golden_test analysis_test \
      votable_test common_test sky_test \
      bench_table1_federation bench_fig1_chimera_compose bench_fig2_pegasus_pipeline \
      bench_fig3_reduction bench_fig4_concrete_exec bench_fig5_portal \
      bench_fig6_webservice bench_fig7_dressler bench_a1_reuse_policy \
      bench_a2_site_selection

ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
NVO_SURVEY_TEST_TARGET="${NVO_SURVEY_TEST_TARGET:-20000}" \
  ctest --test-dir "$BUILD" -R "$REGEX" --output-on-failure

if [ "${NVO_SKIP_TSAN:-0}" = "1" ]; then
  echo "NVO_SKIP_TSAN=1: skipping ThreadSanitizer phase"
  exit 0
fi

cmake -B "$TSAN_BUILD" -S "$ROOT" -DNVO_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j --target replica_cache_test data_plane_test \
      obs_test observability_test grid_test soa_kernel_test survey_test \
      async_portal_test dataflow_test multipool_test lifecycle_test

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
NVO_SURVEY_TEST_TARGET="${NVO_SURVEY_TEST_TARGET:-5000}" \
  ctest --test-dir "$TSAN_BUILD" -R "$TSAN_REGEX" --output-on-failure
