#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <thread>

#include "analysis/survey.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replacement global allocation functions: a per-thread counter, read by the
// traced survey pass to report core.allocs_per_galaxy exactly. The aligned
// forms are left to the runtime.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

const char* to_string(Clock clock) {
  switch (clock) {
    case Clock::kWall: return "wall";
    case Clock::kSim: return "sim";
    case Clock::kNone: return "-";
  }
  return "-";
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

std::size_t setup_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t thread_allocations() { return t_allocations; }

double peak_rss_mb() {
  return static_cast<double>(nvo::analysis::process_vm_hwm_kb()) / 1024.0;
}

std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double ShardedSetup::estimate_s() const {
  return static_cast<double>(shards_.size()) * median(shards_);
}

double settled_idle_ms(const nvo::grid::ThreadPool& pool) {
  // Services hand out their pool read-only; the pool itself is not const,
  // and no-op tasks change nothing a workload measures or checks.
  auto& mutable_pool = const_cast<nvo::grid::ThreadPool&>(pool);
  nvo::grid::parallel_for(mutable_pool, mutable_pool.num_threads(), [](std::size_t) {});
  return pool.idle_ms();
}

void parallel_indices(std::size_t n, std::size_t threads,
                      const std::function<void(std::size_t)>& body) {
  threads = std::max<std::size_t>(1, std::min(threads, n));
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
      body(i);
    }
  };
  std::vector<std::jthread> helpers;
  helpers.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(worker);
  worker();
}

double warm_render_cache(const nvo::sim::Universe& universe, std::size_t shards,
                         ShardedSetup& timing) {
  // One task per cached frame, optical fields first so round-robin slicing
  // spreads the large field renders evenly over the shards. The sizes are
  // the ones the federation's archive handlers request. X-ray maps are not
  // memoized by the universe, so there is nothing to warm for them.
  struct Task {
    const nvo::sim::Cluster* cluster;
    const nvo::sim::GalaxyTruth* galaxy;  // null: optical field
  };
  std::vector<Task> tasks;
  for (const nvo::sim::Cluster& c : universe.clusters()) tasks.push_back({&c, nullptr});
  for (const nvo::sim::Cluster& c : universe.clusters()) {
    for (const nvo::sim::GalaxyTruth& g : c.galaxies) tasks.push_back({&c, &g});
  }
  std::vector<double> task_us(tasks.size(), 0.0);
  const auto render = [&](const Task& t) {
    ScopedUs span(task_us[static_cast<std::size_t>(&t - tasks.data())]);
    if (t.galaxy != nullptr) {
      (void)universe.galaxy_cutout(*t.cluster, *t.galaxy, 64);
    } else {
      (void)universe.optical_field(*t.cluster, 512, 2.0);
    }
  };
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<const Task*> slice;
    for (std::size_t i = s; i < tasks.size(); i += shards) slice.push_back(&tasks[i]);
    const auto t0 = SteadyClock::now();
    parallel_indices(slice.size(), setup_threads(),
                     [&](std::size_t i) { render(*slice[i]); });
    timing.add(seconds_since(t0));
  }
  double total_us = 0.0;
  for (const double us : task_us) total_us += us;
  return tasks.empty() ? 0.0 : total_us / static_cast<double>(tasks.size());
}

std::uint64_t render_cache_leaks(const nvo::sim::RenderCache::Stats& before,
                                 const nvo::sim::RenderCache::Stats& after) {
  return (after.misses - before.misses) + (after.clears - before.clears);
}

void run_for(double seconds, std::size_t min_iterations,
             const std::function<void()>& iteration) {
  const auto t0 = SteadyClock::now();
  std::size_t done = 0;
  while (done < min_iterations || seconds_since(t0) < seconds) {
    iteration();
    ++done;
  }
}

}  // namespace perfbench
