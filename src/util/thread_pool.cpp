#include "util/thread_pool.hpp"

#include <algorithm>

namespace aed {

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t count = std::max<std::size_t>(1, workers);
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::runAll(std::vector<std::function<void()>> tasks) {
  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  for (auto& task : tasks) futures.push_back(submit(std::move(task)));
  // Collect every future before rethrowing: a task that throws must not
  // abandon its in-flight siblings (their futures would be destroyed while
  // the pool still runs them, and their exceptions would be lost).
  std::exception_ptr first;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace aed
