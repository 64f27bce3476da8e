// Heap-allocation counter: replaceable global operator new/delete, so a
// benchmark can report exact allocations per iteration. Linked only into the
// benches that audit allocation-free hot paths.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nvo::bench {

std::uint64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

void report_allocs(benchmark::State& state, std::uint64_t before) {
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(heap_allocs() - before) /
      static_cast<double>(state.iterations()));
}

}  // namespace nvo::bench
