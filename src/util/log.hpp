// Minimal leveled logger.
//
// AED's engine logs milestone events (encoding sizes, registered
// objectives) at Info and recoverable trouble (ladder descents, injected
// faults, failed subproblems) at Warn. The level is a process global
// settable by tests/benches; output goes to stderr so bench result tables
// on stdout stay machine-parseable.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace aed {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are discarded.
void setLogLevel(LogLevel level);

/// Writes one formatted line to stderr if `level` passes the threshold.
/// Thread-safe: the line (prefix, message, newline) is formatted into one
/// buffer and emitted with a single write under the logger mutex, so lines
/// from ThreadPool workers (parallel subproblem solves, teardown frees)
/// never interleave mid-line.
void logMessage(LogLevel level, const std::string& message);

/// Redirects log lines to `sink` instead of stderr (nullptr restores the
/// stderr path). The sink is invoked under the logger mutex with the fully
/// formatted line, one call per line, never concurrently. For tests.
using LogSink = std::function<void(LogLevel, const std::string& line)>;
void setLogSink(LogSink sink);

namespace detail {
/// Stream-style log statement: destructor emits the line.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { logMessage(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine logInfo() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine logWarn() { return detail::LogLine(LogLevel::kWarn); }

}  // namespace aed
