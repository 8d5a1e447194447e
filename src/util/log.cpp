#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace aed {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_mutex;
LogSink g_sink;  // guarded by g_mutex

const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?";
}

const char* levelMetric(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "log.debug_lines";
    case LogLevel::kInfo:  return "log.info_lines";
    case LogLevel::kWarn:  return "log.warn_lines";
    case LogLevel::kError: return "log.error_lines";
    case LogLevel::kOff:   return "log.off_lines";
  }
  return "log.unknown_lines";
}
}  // namespace

void setLogLevel(LogLevel level) { g_level.store(level); }

void setLogSink(LogSink sink) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_sink = std::move(sink);
}

void logMessage(LogLevel level, const std::string& message) {
  if (level < g_level.load()) return;
  MetricsRegistry::global().add(levelMetric(level), 1.0);
  // Mirror every emitted line into the flight recorder's per-thread ring so
  // a post-mortem dump carries the log tail alongside the recent spans.
  FlightRecorder::recordLog(levelName(level), message);
  // Format the whole line outside the lock, then emit it with one write:
  // concurrent callers (runParallel() lanes logging mid-solve) serialize on
  // the mutex and each line reaches stderr intact, never interleaved.
  std::string line = "[aed ";
  line += levelName(level);
  line += "] ";
  line += message;
  line += '\n';
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink) {
    g_sink(level, line);
    return;
  }
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

}  // namespace aed
