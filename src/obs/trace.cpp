#include "obs/trace.hpp"

#include "obs/flight.hpp"
#include "obs/json.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <mutex>
#include <ostream>

namespace aed {

namespace {

using Clock = std::chrono::steady_clock;

/// Recording toggle. A single process-wide relaxed flag: the disabled-path
/// cost is one load, and enabling mid-run only needs eventual visibility
/// (spans that raced the transition are simply not recorded).
std::atomic<bool> g_enabled{false};

/// Monotonic span ids; 0 is reserved for "no span".
std::atomic<std::uint64_t> g_nextSpanId{1};
std::atomic<std::uint32_t> g_nextTid{1};

Clock::time_point epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}

std::int64_t nowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch())
      .count();
}

struct ThreadBuffer;

/// Process-wide collector: owns events flushed by exited threads and a
/// registry of live per-thread buffers for collect() to drain.
struct Collector {
  std::mutex mutex;
  std::vector<TraceEvent> flushed;
  std::vector<ThreadBuffer*> live;

  static Collector& instance() {
    // Leaked intentionally: thread-exit flushes may run during process
    // teardown, after function-local statics would have been destroyed.
    static Collector* collector = new Collector();
    return *collector;
  }
};

/// Per-thread event buffer. The mutex is only contended when an exporter
/// drains a live buffer mid-run; the owning thread's appends are otherwise
/// uncontended lock/unlock pairs.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid;

  ThreadBuffer() : tid(g_nextTid.fetch_add(1, std::memory_order_relaxed)) {
    Collector& collector = Collector::instance();
    const std::lock_guard<std::mutex> lock(collector.mutex);
    collector.live.push_back(this);
  }

  ~ThreadBuffer() {
    Collector& collector = Collector::instance();
    const std::lock_guard<std::mutex> lock(collector.mutex);
    {
      const std::lock_guard<std::mutex> bufferLock(mutex);
      collector.flushed.insert(collector.flushed.end(),
                               std::make_move_iterator(events.begin()),
                               std::make_move_iterator(events.end()));
      events.clear();
    }
    collector.live.erase(
        std::remove(collector.live.begin(), collector.live.end(), this),
        collector.live.end());
  }

  void append(TraceEvent event) {
    event.tid = tid;
    const std::lock_guard<std::mutex> lock(mutex);
    events.push_back(std::move(event));
  }
};

ThreadBuffer& threadBuffer() {
  static thread_local ThreadBuffer buffer;
  return buffer;
}

/// Innermost open span on this thread. Plain thread_local (not in the
/// buffer struct) so ScopedParent stays cheap and usable pre-registration.
thread_local std::uint64_t t_currentSpan = 0;

}  // namespace

std::int64_t tracerNowUs() { return nowUs(); }

bool Tracer::enabledFlag() {
  return g_enabled.load(std::memory_order_relaxed);
}

void Tracer::enable() {
  epoch();  // pin the epoch before the first span
  g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { g_enabled.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  Collector& collector = Collector::instance();
  const std::lock_guard<std::mutex> lock(collector.mutex);
  collector.flushed.clear();
  for (ThreadBuffer* buffer : collector.live) {
    const std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    buffer->events.clear();
  }
}

std::vector<TraceEvent> Tracer::collect() {
  std::vector<TraceEvent> result;
  Collector& collector = Collector::instance();
  {
    const std::lock_guard<std::mutex> lock(collector.mutex);
    result = collector.flushed;
    for (ThreadBuffer* buffer : collector.live) {
      const std::lock_guard<std::mutex> bufferLock(buffer->mutex);
      result.insert(result.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(result.begin(), result.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.startUs != b.startUs ? a.startUs < b.startUs
                                            : a.id < b.id;
            });
  return result;
}

std::uint64_t Tracer::currentSpan() { return t_currentSpan; }

Tracer::ScopedParent::ScopedParent(std::uint64_t parent)
    : saved_(t_currentSpan) {
  t_currentSpan = parent;
}

Tracer::ScopedParent::~ScopedParent() { t_currentSpan = saved_; }

void Tracer::writeChromeTrace(std::ostream& out) {
  const std::vector<TraceEvent> events = collect();
  std::string json;
  json.reserve(events.size() * 160 + 64);
  json += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) json += ",";
    first = false;
    json += "\n{\"name\":\"";
    json += jsonEscape(event.name);
    json += "\",\"cat\":\"aed\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    json += std::to_string(event.tid);
    json += ",\"ts\":";
    json += std::to_string(event.startUs);
    json += ",\"dur\":";
    json += std::to_string(event.durUs);
    json += ",\"args\":{\"id\":";
    json += std::to_string(event.id);
    json += ",\"parent\":";
    json += std::to_string(event.parent);
    if (!event.detail.empty()) {
      json += ",\"detail\":\"";
      json += jsonEscape(event.detail);
      json += "\"";
    }
    json += "}}";
  }
  json += "\n],\"displayTimeUnit\":\"ms\"}\n";
  out << json;
}

bool Tracer::writeChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  writeChromeTrace(out);
  return static_cast<bool>(out);
}

void Span::open(const char* name) {
  name_ = name;
  if (Tracer::enabledFlag()) {
    id_ = g_nextSpanId.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_currentSpan;
    t_currentSpan = id_;
  }
  flight_ = FlightRecorder::enabled();
  if (id_ != 0 || flight_) startUs_ = nowUs();
}

Span::Span(const char* name) { open(name); }

Span::Span(const char* name, std::string detail) {
  open(name);
  // The caller already built the string; keeping it for the flight ring's
  // (truncated) text costs a move, not an allocation.
  if (id_ != 0 || flight_) detail_ = std::move(detail);
}

void Span::setDetail(std::string detail) {
  if (id_ != 0) detail_ = std::move(detail);
}

Span::~Span() {
  if (id_ == 0 && !flight_) return;
  const std::int64_t durUs = nowUs() - startUs_;
  if (flight_) FlightRecorder::recordSpan(name_, detail_, startUs_, durUs);
  if (id_ == 0) return;
  t_currentSpan = parent_;
  TraceEvent event;
  event.name = name_;
  event.detail = std::move(detail_);
  event.id = id_;
  event.parent = parent_;
  event.startUs = startUs_;
  event.durUs = durUs;
  threadBuffer().append(std::move(event));
}

}  // namespace aed
