// Wall-clock budgets for the synthesis resilience layer.
//
// A Deadline is a point in time after which solver work should stop. The
// engine threads one through AedOptions → per-subproblem SmtSession::check(),
// where the remaining budget becomes Z3's `timeout` parameter. Deadlines are
// value types: copy freely, split a global budget across subproblems with
// remainingMillis() arithmetic.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace aed {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default-constructed deadlines never expire.
  Deadline() = default;

  /// A deadline `ms` milliseconds from now. 0 ms is already expired; `ms` is
  /// capped at kForeverMs so the time point cannot overflow.
  static Deadline after(std::uint64_t ms) {
    Deadline d;
    d.unlimited_ = false;
    d.at_ = Clock::now() + std::chrono::milliseconds(std::min(ms, kForeverMs));
    return d;
  }

  static Deadline unlimited() { return Deadline(); }

  bool isUnlimited() const { return unlimited_; }

  bool expired() const { return !unlimited_ && Clock::now() >= at_; }

  /// Milliseconds left before expiry; 0 once expired. Unlimited deadlines
  /// report kForeverMs (callers pass this straight to Z3, which treats any
  /// huge value as "no timeout").
  std::uint64_t remainingMillis() const {
    if (unlimited_) return kForeverMs;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - Clock::now());
    return left.count() <= 0 ? 0 : static_cast<std::uint64_t>(left.count());
  }

  /// The earlier of this deadline and `other`.
  Deadline min(const Deadline& other) const {
    if (unlimited_) return other;
    if (other.unlimited_) return *this;
    return at_ <= other.at_ ? *this : other;
  }

  static constexpr std::uint64_t kForeverMs = UINT64_C(1) << 40;  // ~35 years

 private:
  bool unlimited_ = true;
  Clock::time_point at_{};
};

/// Seconds elapsed on Deadline::Clock since `start` (phase and stage timers).
inline double secondsSince(Deadline::Clock::time_point start) {
  return std::chrono::duration<double>(Deadline::Clock::now() - start).count();
}

}  // namespace aed
