// Fork-join over an index range. core/aed.cpp runs each round's
// per-destination solves (§8) through it and frees their solvers through it
// at teardown.
//
// Z3 contexts are not thread-safe, so the AED engine creates one context per
// destination group and a task touches only its own group. Tasks are
// independent (no inter-task ordering), which matches the paper's
// observation that per-destination problems never conflict.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>

namespace aed {

/// A worker-count option resolved: `requested`, or the hardware concurrency
/// (at least 1) when `requested` is 0.
inline std::size_t resolveWorkers(std::size_t requested) {
  return requested != 0
             ? requested
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Runs task(0) … task(count-1) on min(lanes, count) lanes (at least one)
/// and returns when all have finished. The calling thread is one of the
/// lanes, so one lane or one task starts no thread. Lanes take indices in
/// increasing order from one shared counter. Every lane installs the
/// caller's tracing span context (Tracer::ScopedParent), so spans a task
/// opens parent under the span open at the call, whichever thread runs it
/// (see obs/trace.hpp).
///
/// Every task runs even when some throw; after all lanes have joined, the
/// exception of the lowest throwing index is rethrown. If a thread cannot be
/// started, the lanes already running, the caller's included, do the work.
void runParallel(std::size_t count, std::size_t lanes,
                 const std::function<void(std::size_t)>& task);

}  // namespace aed
