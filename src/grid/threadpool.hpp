// Work-queue thread pool for real (non-simulated) execution of workflow
// payloads — the role the Condor pools' worker nodes played. Follows the
// C++ Core Guidelines concurrency rules: jthread-based workers joined by
// RAII, condition-variable signalling, no detached threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hpp"

namespace nvo::grid {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 means hardware_concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (payload errors are reported
  /// through their own channels; an escaping exception terminates).
  void submit(std::function<void()> task);

  /// Enqueues a cancellable task: the token is checked when the task is
  /// dequeued (by a worker or by the destructor's inline drain) — cancelled
  /// runs `on_cancel`, live runs `task`. This is how a cancelled request's
  /// queued work is dropped without executing the expensive body while the
  /// bookkeeping it owes (in-flight counter decrements, cv notifications)
  /// still happens exactly once.
  void submit_cancellable(CancellationToken token, std::function<void()> task,
                          std::function<void()> on_cancel);

  /// Tasks whose cancel branch ran instead of the body (cumulative).
  std::size_t cancelled_tasks() const {
    std::lock_guard lock(mutex_);
    return cancelled_tasks_;
  }

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle();

  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks queued but not yet picked up by a worker (instantaneous).
  std::size_t queue_depth() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  /// Tasks currently executing on workers (instantaneous).
  std::size_t active_tasks() const {
    std::lock_guard lock(mutex_);
    return active_;
  }

  /// Cumulative wall milliseconds workers have spent parked on the
  /// work-available wait, summed across all workers. The direct observable
  /// for pipeline overlap: a phase-barriered executor idles the pool while
  /// staging runs; a pipelined one keeps this flat while fetches are in
  /// flight. Updated when a worker wakes, so the value is stable while no
  /// work arrives.
  double idle_ms() const {
    std::lock_guard lock(mutex_);
    return idle_ms_;
  }

 private:
  void worker_loop(std::stop_token stop);

  mutable std::mutex mutex_;
  std::condition_variable_any work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  std::size_t cancelled_tasks_ = 0;
  double idle_ms_ = 0.0;
  std::vector<std::jthread> workers_;  // declared last: joins before members die
};

/// Runs fn(i) for i in [0, n) across the pool, blocking until done. Chunked
/// to amortize queue overhead on fine-grained loops.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace nvo::grid
