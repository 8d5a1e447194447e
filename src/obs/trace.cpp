#include "obs/trace.hpp"

#include "obs/flight.hpp"
#include "obs/json.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <ostream>
#include <string_view>

namespace aed {

namespace {

using Clock = std::chrono::steady_clock;
using FlightEvent = FlightRecorder::Event;

/// Recording toggle. A single process-wide relaxed flag: the disabled-path
/// cost is one load, and enabling mid-run only needs eventual visibility
/// (spans that raced the transition are simply not recorded).
std::atomic<bool> g_enabled{false};

/// Monotonic span ids; 0 is reserved for "no span".
std::atomic<std::uint64_t> g_nextSpanId{1};
/// Global flight record order; 0 is reserved for "empty slot".
std::atomic<std::uint64_t> g_nextSeq{1};
/// Thread indices, shared by trace events and flight events.
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

/// A lambda, not a function, so std::sort inlines it: once the retired cap
/// is reached, every thread exit sorts about a thousand events.
constexpr auto bySeq = [](const FlightEvent& a, const FlightEvent& b) {
  return a.seq < b.seq;
};

/// Copies `a`, then a space and `b` when `b` is non-empty, into the slot's
/// fixed buffer, truncating; always terminates.
void setText(FlightEvent& event, std::string_view a, std::string_view b) {
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

struct ThreadLog;

/// Process-wide collector: the live logs, plus what exited threads left
/// behind — all their traced spans and the newest kRetiredEventCap of their
/// flight events.
struct Collector {
  std::mutex mutex;
  std::vector<ThreadLog*> live;
  std::vector<TraceEvent> spans;
  std::vector<FlightEvent> flight;

  static Collector& instance() {
    // Leaked intentionally: thread-exit hand-offs may run during process
    // teardown, after function-local statics would have been destroyed.
    static Collector* collector = new Collector();
    return *collector;
  }
};

/// One thread's recording under one thread index: its traced spans and its
/// flight ring. The ring is allocated with the thread_local itself and never
/// grows. The mutex is only contended when collect() or clear() reads a live
/// log, so the owning thread's writes never block on other recording threads.
struct ThreadLog {
  std::mutex mutex;
  std::vector<TraceEvent> spans;
  std::array<FlightEvent, FlightRecorder::kEventsPerThread> ring;
  std::uint64_t written = 0;  // flight records; slot index = written % cap
  const std::uint32_t tid;

  ThreadLog() : tid(g_nextTid.fetch_add(1, std::memory_order_relaxed)) {
    Collector& collector = Collector::instance();
    const std::lock_guard<std::mutex> lock(collector.mutex);
    collector.live.push_back(this);
  }

  ~ThreadLog() {
    Collector& collector = Collector::instance();
    const std::scoped_lock lock(collector.mutex, mutex);
    collector.spans.insert(collector.spans.end(),
                           std::make_move_iterator(spans.begin()),
                           std::make_move_iterator(spans.end()));
    appendRing(collector.flight);
    if (collector.flight.size() > FlightRecorder::kRetiredEventCap) {
      std::sort(collector.flight.begin(), collector.flight.end(), bySeq);
      collector.flight.erase(
          collector.flight.begin(),
          collector.flight.end() - FlightRecorder::kRetiredEventCap);
    }
    collector.live.erase(
        std::remove(collector.live.begin(), collector.live.end(), this),
        collector.live.end());
  }

  /// Writes the next ring slot, overwriting the oldest once the ring is
  /// full. Caller holds `mutex`.
  void record(char kind, std::int64_t timeUs, std::int64_t durUs,
              std::string_view text, std::string_view detail) {
    FlightEvent& slot = ring[written++ % ring.size()];
    slot.seq = g_nextSeq.fetch_add(1, std::memory_order_relaxed);
    slot.timeUs = timeUs;
    slot.durUs = durUs;
    slot.tid = tid;
    slot.kind = kind;
    setText(slot, text, detail);
  }

  /// Appends the ring's events, oldest first. Caller holds `mutex`.
  void appendRing(std::vector<FlightEvent>& out) const {
    const std::size_t valid = std::min<std::uint64_t>(written, ring.size());
    for (std::size_t i = 0; i < valid; ++i) {
      out.push_back(ring[(written - valid + i) % ring.size()]);
    }
  }
};

ThreadLog& threadLog() {
  static thread_local ThreadLog log;
  return log;
}

/// Calls `retired` on the collector and `live` on every live log, holding
/// the collector's lock throughout and each log's lock while it is visited.
template <typename RetiredFn, typename LiveFn>
void visitLogs(RetiredFn retired, LiveFn live) {
  Collector& collector = Collector::instance();
  const std::lock_guard<std::mutex> lock(collector.mutex);
  retired(collector);
  for (ThreadLog* log : collector.live) {
    const std::lock_guard<std::mutex> logLock(log->mutex);
    live(*log);
  }
}

/// Innermost open span on this thread. Plain thread_local (not in the log)
/// so ScopedParent stays cheap and never registers a log.
thread_local std::uint64_t t_currentSpan = 0;

}  // namespace

bool Tracer::enabledFlag() {
  return g_enabled.load(std::memory_order_relaxed);
}

void Tracer::enable() {
  epoch();  // pin the epoch before the first span
  g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { g_enabled.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  visitLogs([](Collector& collector) { collector.spans.clear(); },
            [](ThreadLog& log) { log.spans.clear(); });
}

std::vector<TraceEvent> Tracer::collect() {
  std::vector<TraceEvent> result;
  visitLogs([&result](Collector& collector) { result = collector.spans; },
            [&result](ThreadLog& log) {
              result.insert(result.end(), log.spans.begin(), log.spans.end());
            });
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
  ThreadLog& log = threadLog();
  const std::lock_guard<std::mutex> lock(log.mutex);
  if (flight_) log.record('s', startUs_, durUs, name_, detail_);
  if (id_ == 0) return;
  t_currentSpan = parent_;
  TraceEvent& event = log.spans.emplace_back();
  event.name = name_;
  event.detail = std::move(detail_);
  event.id = id_;
  event.parent = parent_;
  event.tid = log.tid;
  event.startUs = startUs_;
  event.durUs = durUs;
}

void FlightRecorder::recordLog(const char* level, std::string_view line) {
  if (!enabled()) return;
  const std::int64_t timeUs = nowUs();
  ThreadLog& log = threadLog();
  const std::lock_guard<std::mutex> lock(log.mutex);
  log.record('l', timeUs, 0, level, line);
}

std::vector<FlightRecorder::Event> FlightRecorder::collect() {
  std::vector<Event> result;
  visitLogs([&result](Collector& collector) { result = collector.flight; },
            [&result](ThreadLog& log) { log.appendRing(result); });
  std::sort(result.begin(), result.end(), bySeq);
  return result;
}

void FlightRecorder::clear() {
  visitLogs([](Collector& collector) { collector.flight.clear(); },
            [](ThreadLog& log) { log.written = 0; });
}

}  // namespace aed
