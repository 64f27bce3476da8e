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
  // About 16 chunks per executor (the workers plus this thread): fine enough
  // that no executor is left with a long last chunk at the barrier, coarse
  // enough that the shared cursor is touched rarely.
  const std::size_t executors = pool.num_threads() + 1;
  const std::size_t chunk_size = (n + 16 * executors - 1) / (16 * executors);
  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;
  std::atomic<std::size_t> cursor{0};
  // noexcept: fn must not throw, and an escaping exception terminates on
  // this thread as it does on a worker, so no helper outlives the frame.
  const auto claim = [&]() noexcept {
    for (std::size_t c = cursor.fetch_add(1); c < chunks; c = cursor.fetch_add(1)) {
      const std::size_t end = std::min(n, (c + 1) * chunk_size);
      for (std::size_t i = c * chunk_size; i < end; ++i) fn(i);
    }
  };
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t helpers = std::min(pool.num_threads(), chunks);
  for (std::size_t h = helpers; h > 0; --h) {
    pool.submit([&] {
      claim();
      // Decrement and notify under the lock, so the caller cannot see zero
      // and unwind this frame before the helper has let go of it.
      std::lock_guard lock(done_mutex);
      if (--helpers == 0) done_cv.notify_all();
    });
  }
  claim();
  // The helpers reference this frame, so every one must have returned, even
  // one that found nothing left to claim.
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return helpers == 0; });
}

}  // namespace nvo::grid
