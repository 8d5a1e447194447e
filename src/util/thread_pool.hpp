// Fixed-size thread pool used by the per-destination parallel solver (§8).
//
// Z3 contexts are not thread-safe, so the AED engine creates one context per
// submitted task; the pool only provides the workers. Tasks are independent
// (no inter-task ordering), which matches the paper's observation that
// per-destination problems never conflict.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace aed {

/// A worker-count option resolved: `requested`, or the hardware concurrency
/// (at least 1) when `requested` is 0.
inline std::size_t resolveWorkers(std::size_t requested) {
  return requested != 0
             ? requested
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves with its result (or exception).
  /// The submitter's tracing span context is captured here and installed on
  /// the worker for the task's duration, so spans the task opens parent
  /// under the span that enqueued it rather than under whatever the worker
  /// ran last (see obs/trace.hpp).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    const std::uint64_t parentSpan = Tracer::currentSpan();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([packaged, parentSpan] {
        const Tracer::ScopedParent scope(parentSpan);
        (*packaged)();
      });
    }
    wake_.notify_one();
    return result;
  }

  std::size_t workerCount() const { return threads_.size(); }

  /// Submits every task and blocks until all have finished. Every future is
  /// collected before the first exception (if any) is rethrown, so a
  /// throwing task never abandons in-flight siblings. The simulation engine
  /// fans out through this, on a pool it creates on its first fan-out and
  /// keeps for its lifetime.
  void runAll(std::vector<std::function<void()>> tasks);

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace aed
