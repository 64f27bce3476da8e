#include "grid/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace nvo::grid {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this](std::stop_token stop) { worker_loop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  for (auto& w : workers_) w.request_stop();
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
  // A submit that raced shutdown (enqueued after wait_idle saw the pool
  // drained, observed by no worker before the stop) would otherwise strand
  // its task in the queue — destroyed unrun, leaving whatever completion
  // signal it carried (an in-flight counter, a promise) permanently
  // unsatisfied. With the workers joined this thread owns the queue; run
  // the leftovers inline.
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::submit_cancellable(CancellationToken token,
                                    std::function<void()> task,
                                    std::function<void()> on_cancel) {
  submit([this, token = std::move(token), task = std::move(task),
          on_cancel = std::move(on_cancel)] {
    if (token.cancelled()) {
      {
        std::lock_guard lock(mutex_);
        ++cancelled_tasks_;
      }
      if (on_cancel) on_cancel();
      return;
    }
    task();
  });
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  // Help first: a caller that would otherwise park runs queued tasks itself,
  // counted in active_ like a worker's so another waiter still sees them.
  while (!queue_.empty()) {
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
  }
  // A worker that finished while this caller's task still ran did not see
  // the pool idle; if that task was the last, wake the other waiters here.
  if (active_ == 0) idle_.notify_all();
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(std::stop_token stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      const auto park = std::chrono::steady_clock::now();
      work_available_.wait(lock, stop, [this] { return !queue_.empty(); });
      idle_ms_ += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - park)
                      .count();
      if (queue_.empty()) return;  // stop requested and nothing left
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, pool.num_threads() * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t submitted = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk_size) {
    const std::size_t end = std::min(n, begin + chunk_size);
    ++submitted;
    remaining.fetch_add(1, std::memory_order_relaxed);
    pool.submit([&, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(done_mutex);
        done_cv.notify_all();
      }
    });
  }
  (void)submitted;
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining.load(std::memory_order_acquire) == 0; });
}

}  // namespace nvo::grid
