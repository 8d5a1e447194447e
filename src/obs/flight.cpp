// The recorder's toggle and dumps. recordLog(), collect() and clear() live
// in obs/trace.cpp, with the per-thread log the tracer also writes.
#include "obs/flight.hpp"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace aed {

namespace {

/// On by default — a flight recorder that has to be switched on before the
/// crash is not a flight recorder.
std::atomic<bool> g_flightEnabled{true};

std::mutex& dumpPathMutex() {
  static std::mutex mutex;
  return mutex;
}

std::string& dumpPathStorage() {
  // Seeded from the environment on first use so tools get dumps without
  // code changes; setDumpPath() overrides.
  static std::string path = [] {
    const char* env = std::getenv("AED_FLIGHT_OUT");
    return std::string(env != nullptr ? env : "");
  }();
  return path;
}

}  // namespace

void FlightRecorder::setEnabled(bool enabled) {
  g_flightEnabled.store(enabled, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() {
  return g_flightEnabled.load(std::memory_order_relaxed);
}

void FlightRecorder::setDumpPath(std::string path) {
  const std::lock_guard<std::mutex> lock(dumpPathMutex());
  dumpPathStorage() = std::move(path);
}

std::string FlightRecorder::dumpPath() {
  const std::lock_guard<std::mutex> lock(dumpPathMutex());
  return dumpPathStorage();
}

std::string FlightRecorder::renderDump(const DumpContext& context) {
  const std::vector<Event> events = collect();
  std::string json;
  json.reserve(events.size() * 160 + 2048);
  json += "{\n  \"aed_flight_dump\": 1,\n  \"reason\": \"";
  json += jsonEscape(context.reason);
  json += "\",\n  \"error_code\": \"";
  json += jsonEscape(context.errorCode);
  json += "\",\n  \"detail\": \"";
  json += jsonEscape(context.detail);
  json += "\",\n  \"events\": [";
  bool first = true;
  for (const Event& event : events) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    {\"seq\": " + std::to_string(event.seq) +
            ", \"tid\": " + std::to_string(event.tid) + ", \"kind\": \"" +
            (event.kind == 's' ? "span" : "log") +
            "\", \"time_us\": " + std::to_string(event.timeUs) +
            ", \"dur_us\": " + std::to_string(event.durUs) + ", \"text\": \"";
    json += jsonEscape(event.text);
    json += "\"}";
  }
  json += "\n  ],\n  \"metrics\": ";
  json += metricsToJsonArray(MetricsRegistry::global().snapshot());
  for (const auto& [key, value] : context.sections) {
    json += ",\n  \"";
    json += jsonEscape(key);
    json += "\": ";
    json += value;
  }
  json += "\n}\n";
  return json;
}

std::string FlightRecorder::maybeDump(const DumpContext& context) {
  const std::string path = dumpPath();
  if (path.empty()) return "";
  std::ofstream out(path);
  if (!out) return "";
  out << renderDump(context);
  return out ? path : "";
}

}  // namespace aed
