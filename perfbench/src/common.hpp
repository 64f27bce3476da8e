// Shared plumbing for the repository benchmark: command-line options, the
// result record every workload fills, wall-clock spans, statistics, the
// allocation counter, sharded set-up timing and render-cache warming.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/galmorph.hpp"
#include "grid/threadpool.hpp"
#include "sim/render_cache.hpp"
#include "sim/universe.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Which time base a metric is read from: real CPU work, or the fabric's
/// simulated clock (queue, WAN and makespan time).
enum class Clock { kWall, kSim, kNone };
const char* to_string(Clock clock);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kNone;
};

/// What one workload run reports. `metrics` go into the final JSON line;
/// `info` rows are printed in the human-readable table only.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;
  std::vector<std::string> check_failures;

  void metric(const std::string& name, double value, const std::string& unit,
              Clock clock) {
    metrics.push_back({name, value, unit, clock});
  }
  void note(const std::string& name, double value, const std::string& unit,
            Clock clock) {
    info.push_back({name, value, unit, clock});
  }
  /// Records a failed output or isolation check; the run then exits non-zero.
  void check(bool ok, const std::string& what);
};

/// Pool sizes fixed by the benchmark: the kernel pool has two workers and
/// the calling thread is the only other source of load.
inline constexpr std::size_t kKernelThreads = 2;
/// Helper threads for harness-only synthesis in set-up.
std::size_t setup_threads();

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Accumulates wall time of a code region into a double (microseconds).
class ScopedUs {
 public:
  explicit ScopedUs(double& sink) : sink_(sink), t0_(SteadyClock::now()) {}
  ~ScopedUs() {
    sink_ += std::chrono::duration<double, std::micro>(SteadyClock::now() - t0_)
                 .count();
  }
  ScopedUs(const ScopedUs&) = delete;
  ScopedUs& operator=(const ScopedUs&) = delete;

 private:
  double& sink_;
  SteadyClock::time_point t0_;
};

double median(std::vector<double> values);
/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Heap allocations made by the calling thread since it started (counted by
/// the benchmark's replacement operator new).
std::uint64_t thread_allocations();

/// VmHWM of this process in MB.
double peak_rss_mb();

/// 64-bit FNV-1a digest of a byte string (catalog identity checks).
std::uint64_t digest(const std::string& bytes);

/// Set-up split into equal shards: each shard is timed and the set-up
/// figure is the shard count times the median shard, so one descheduled
/// shard does not move it.
class ShardedSetup {
 public:
  void add(double seconds) { shards_.push_back(seconds); }
  double estimate_s() const;

 private:
  std::vector<double> shards_;
};

/// Renders every memoized frame the federation serves for `universe` (the
/// optical field and one 64 px cutout per member) into the process-wide
/// RenderCache, `shards` equal round-robin slices in turn, each slice
/// spread over setup_threads() threads. Returns the harness cost: render
/// microseconds per frame, summed over threads.
double warm_render_cache(const nvo::sim::Universe& universe, std::size_t shards,
                         ShardedSetup& timing);

/// ThreadPool::idle_ms() after waking every worker with a no-op task: the
/// pool folds an idle period into idle_ms() only when a worker wakes, so
/// an unsettled read drops the idle time since the last task.
double settled_idle_ms(const nvo::grid::ThreadPool& pool);

/// Runs `body` on up to `threads` threads over indices [0, n).
void parallel_indices(std::size_t n, std::size_t threads,
                      const std::function<void(std::size_t)>& body);

/// Misses and clears of the RenderCache between two snapshots: any
/// non-zero value inside a timed phase means harness work leaked into it.
std::uint64_t render_cache_leaks(const nvo::sim::RenderCache::Stats& before,
                                 const nvo::sim::RenderCache::Stats& after);

/// Closed loop: runs `iteration` until `seconds` of wall time have
/// passed (at least `min_iterations` times).
void run_for(double seconds, std::size_t min_iterations,
             const std::function<void()>& iteration);

/// One galaxy for the traced kernel replay.
struct KernelSample {
  const std::string* id;
  double redshift;
  const std::vector<std::uint8_t>* fits;
};

/// Traced-run kernel attribution over an evenly spaced subset of `sample`:
/// adds image.decode_us, the core.* stage times, core.kernel_us,
/// core.job_us and core.allocs_per_galaxy to `result`, and fails the run
/// if the stage replay does not reproduce the kernel's parameters.
void replay_kernel(const std::vector<KernelSample>& sample,
                   const nvo::core::GalMorphArgs& base_args, Result& result);

/// replay_kernel over the 64 px cutouts `universe` serves (RenderCache
/// hits once the universe has been warmed).
void replay_universe_kernel(const nvo::sim::Universe& universe, Result& result);

Result run_survey_stream(const Options& options);
Result run_campaign_cold(const Options& options);
Result run_portal_overload(const Options& options);

}  // namespace perfbench
