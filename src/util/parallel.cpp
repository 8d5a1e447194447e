#include "util/parallel.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <vector>

#include "obs/trace.hpp"

namespace aed {

void runParallel(std::size_t count, std::size_t lanes,
                 const std::function<void(std::size_t)>& task) {
  // One slot per task, each written only by the lane that ran the task and
  // read after the join, so no lock is needed.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const std::uint64_t parentSpan = Tracer::currentSpan();
  const auto lane = [&] {
    const Tracer::ScopedParent scope(parentSpan);
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  // The calling thread is one lane; `extra` threads run the others.
  const std::size_t used = std::min(lanes, count);
  const std::size_t extra = used > 0 ? used - 1 : 0;
  std::vector<std::thread> threads;
  threads.reserve(extra);
  try {
    while (threads.size() < extra) threads.emplace_back(lane);
  } catch (...) {
    // std::system_error, or bad_alloc for the thread's state: the lanes
    // already running do the work. Nothing may escape here while they run,
    // since destroying an unjoined thread ends the program.
  }
  lane();
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace aed
