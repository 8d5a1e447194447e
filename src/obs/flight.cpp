#include "obs/flight.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aed {

namespace {

/// On by default — a flight recorder that has to be switched on before the
/// crash is not a flight recorder.
std::atomic<bool> g_flightEnabled{true};

/// Global record order; 0 is reserved for "empty slot".
std::atomic<std::uint64_t> g_nextSeq{1};
std::atomic<std::uint32_t> g_nextFlightTid{1};

struct FlightRing;

/// Process-wide registry of live rings plus the events of exited threads.
struct FlightCollector {
  std::mutex mutex;
  std::vector<FlightRecorder::Event> retired;
  std::vector<FlightRing*> live;

  static FlightCollector& instance() {
    // Leaked intentionally: thread-exit retirement may run during process
    // teardown, after function-local statics would have been destroyed.
    static FlightCollector* collector = new FlightCollector();
    return *collector;
  }
};

/// Per-thread ring of POD slots. Fixed footprint, allocated with the
/// thread_local itself (no heap). The mutex is uncontended except when a
/// post-mortem reader drains the ring, so the owning thread's writes never
/// block on other recording threads.
struct FlightRing {
  std::mutex mutex;
  std::array<FlightRecorder::Event, FlightRecorder::kEventsPerThread> slots;
  std::uint64_t written = 0;  // total records; slot index = written % cap
  std::uint32_t tid;

  FlightRing() : tid(g_nextFlightTid.fetch_add(1, std::memory_order_relaxed)) {
    FlightCollector& collector = FlightCollector::instance();
    const std::lock_guard<std::mutex> lock(collector.mutex);
    collector.live.push_back(this);
  }

  ~FlightRing() {
    FlightCollector& collector = FlightCollector::instance();
    const std::lock_guard<std::mutex> lock(collector.mutex);
    {
      const std::lock_guard<std::mutex> ringLock(mutex);
      appendValidSlots(collector.retired);
      written = 0;
    }
    // Keep only the newest kRetiredEventCap events across all retirements.
    if (collector.retired.size() > FlightRecorder::kRetiredEventCap) {
      std::sort(collector.retired.begin(), collector.retired.end(),
                [](const FlightRecorder::Event& a,
                   const FlightRecorder::Event& b) { return a.seq < b.seq; });
      collector.retired.erase(
          collector.retired.begin(),
          collector.retired.end() - FlightRecorder::kRetiredEventCap);
    }
    collector.live.erase(
        std::remove(collector.live.begin(), collector.live.end(), this),
        collector.live.end());
  }

  /// Appends this ring's live events, oldest first. Caller holds `mutex`.
  void appendValidSlots(std::vector<FlightRecorder::Event>& out) const {
    const std::size_t cap = slots.size();
    const std::size_t valid = std::min<std::uint64_t>(written, cap);
    for (std::size_t i = 0; i < valid; ++i) {
      out.push_back(slots[(written - valid + i) % cap]);
    }
  }

  void record(const FlightRecorder::Event& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    FlightRecorder::Event& slot = slots[written % slots.size()];
    slot = event;
    slot.tid = tid;
    ++written;
  }
};

FlightRing& threadRing() {
  static thread_local FlightRing ring;
  return ring;
}

/// Copies text into a slot's fixed buffer, truncating; always terminates.
void setText(FlightRecorder::Event& event, std::string_view a,
             std::string_view b = {}) {
  std::size_t n = 0;
  for (std::string_view part : {a, std::string_view(b.empty() ? "" : " "), b}) {
    const std::size_t room = FlightRecorder::kTextCapacity - n;
    const std::size_t take = std::min(part.size(), room);
    std::memcpy(event.text + n, part.data(), take);
    n += take;
    if (n == FlightRecorder::kTextCapacity) break;
  }
  event.text[n] = '\0';
}

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

void FlightRecorder::recordSpan(const char* name, std::string_view detail,
                                std::int64_t startUs, std::int64_t durUs) {
  Event event;
  event.seq = g_nextSeq.fetch_add(1, std::memory_order_relaxed);
  event.timeUs = startUs;
  event.durUs = durUs;
  event.kind = 's';
  setText(event, name, detail);
  threadRing().record(event);
}

void FlightRecorder::recordLog(const char* level, std::string_view line) {
  if (!enabled()) return;
  Event event;
  event.seq = g_nextSeq.fetch_add(1, std::memory_order_relaxed);
  event.timeUs = tracerNowUs();
  event.kind = 'l';
  setText(event, level, line);
  threadRing().record(event);
}

std::vector<FlightRecorder::Event> FlightRecorder::collect() {
  std::vector<Event> result;
  FlightCollector& collector = FlightCollector::instance();
  {
    const std::lock_guard<std::mutex> lock(collector.mutex);
    result = collector.retired;
    for (FlightRing* ring : collector.live) {
      const std::lock_guard<std::mutex> ringLock(ring->mutex);
      ring->appendValidSlots(result);
    }
  }
  std::sort(result.begin(), result.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return result;
}

void FlightRecorder::clear() {
  FlightCollector& collector = FlightCollector::instance();
  const std::lock_guard<std::mutex> lock(collector.mutex);
  collector.retired.clear();
  for (FlightRing* ring : collector.live) {
    const std::lock_guard<std::mutex> ringLock(ring->mutex);
    ring->written = 0;
  }
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
