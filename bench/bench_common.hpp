// Shared main and allocation counter of the ledger benchmarks (A3, S5,
// survey, portal, multipool), whose JSON output tools/run_bench.sh commits
// as BENCH_<lane>.json and tools/check_bench.py checks.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

namespace nvo::bench {

/// Stamps this binary's provenance into the JSON context — `git_sha` (the
/// commit it was built from), `build_type` (its own NDEBUG; the distro
/// library's `library_build_type` describes the library, not this binary),
/// `simd_width` and `hardware_threads` — then runs the benchmarks selected
/// on the command line. Returns main's exit status; unknown flags fail.
int run_benchmarks(int argc, char** argv);

/// Global operator new calls so far. Defined, together with the counting
/// operator new/delete, in alloc_counter.cpp; only the benches that audit
/// allocations link it.
std::uint64_t heap_allocs();

/// Sets `heap_allocs_per_iter` to the allocations since `before` divided by
/// the iteration count.
void report_allocs(benchmark::State& state, std::uint64_t before);

}  // namespace nvo::bench
