// Hierarchical span tracer (the unified observability layer, DESIGN.md §10).
//
// The evaluation is a performance story: per-phase cost across network sizes
// (Figures 11-14). To attribute wall-clock inside a parallel repair round the
// engine opens one Span per unit of interesting work — synthesize, round,
// subproblem solve, SmtSession::check, violations sweep, deployment stage —
// and the tracer records a (name, start, duration, thread, parent) event per
// span. Events can be exported as Chrome trace-event JSON, loadable by
// chrome://tracing and Perfetto (aed_cli --trace, AED_TRACE_OUT for benches).
//
// Parenting. Each thread keeps the id of its innermost open span; a new Span
// adopts it as parent. For work shipped to another thread, the caller's
// current span id is captured at the call and installed on each thread via
// Tracer::ScopedParent for the work's duration — aed::runParallel() does
// this on every lane, so a subproblem span parents correctly under the round
// span that forked it, whichever thread runs it (asserted by
// tests/obs_test.cpp).
//
// Cost model. Tracing is off by default. A fully disabled Span (tracer off
// AND FlightRecorder off) is two relaxed atomic loads and a few stores to a
// trivially-constructible struct: no clock read, no allocation (asserted by
// an operator-new-counting test), no lock. A closing span that either
// recorder takes is written into its thread's log, whose mutex is only ever
// contended by a concurrent collect() or clear(), so steady-state recording
// never blocks on other threads. The always-on flight recorder
// (obs/flight.hpp) takes every closed span — two clock reads plus a bounded
// copy into the log's fixed ring — unless explicitly switched off.
//
// One log per thread: a thread's traced spans and its flight ring live in
// one thread-local log, which takes the thread's index (TraceEvent::tid,
// FlightRecorder::Event::tid) on first use and registers with one
// process-wide collector. When the thread exits the log hands its traced
// spans and its ring to the collector, so short-lived lane threads never
// lose spans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aed {

/// One closed span. Times are microseconds since the tracer epoch (process
/// start), monotonic (steady_clock), the time base flight events share.
struct TraceEvent {
  const char* name = "";   // static-storage literal supplied by the Span
  std::string detail;      // optional free-form annotation ("dst=10.0.1.0/24")
  std::uint64_t id = 0;     // unique per span, never 0
  std::uint64_t parent = 0; // enclosing span id; 0 = root
  std::uint32_t tid = 0;    // the thread's log index, as in flight events
  std::int64_t startUs = 0;
  std::int64_t durUs = 0;
};

class Tracer {
 public:
  /// Starts recording. Spans opened while disabled are never recorded, even
  /// if they close after enable().
  static void enable();
  /// Stops recording; already-buffered events are kept until clear().
  static void disable();
  static bool enabled() { return enabledFlag(); }

  /// Drops every buffered event (and the enabled flag stays as-is).
  static void clear();

  /// Snapshot of all closed spans so far, across threads, in (start, id)
  /// order. Spans still open are not included.
  static std::vector<TraceEvent> collect();

  /// Writes collect() as Chrome trace-event JSON ("traceEvents" array of
  /// complete "X" events; span/parent ids and details go in "args").
  static void writeChromeTrace(std::ostream& out);
  /// Same, to a file. Returns false if the file cannot be written.
  static bool writeChromeTrace(const std::string& path);

  /// Innermost open span id on this thread (0 = none). Capture at submit
  /// time to parent work that runs on another thread.
  static std::uint64_t currentSpan();

  /// Installs `parent` as this thread's current span for the scope, so spans
  /// opened inside parent under the submitter's span instead of whatever the
  /// worker happened to be doing. Restores the previous context on exit.
  /// Near-free when tracing is disabled (two thread-local stores).
  class ScopedParent {
   public:
    explicit ScopedParent(std::uint64_t parent);
    ~ScopedParent();
    ScopedParent(const ScopedParent&) = delete;
    ScopedParent& operator=(const ScopedParent&) = delete;

   private:
    std::uint64_t saved_;
  };

 private:
  static bool enabledFlag();
  friend class Span;
};

/// RAII span: records one TraceEvent from construction to destruction when
/// tracing is enabled, feeds the flight recorder's ring whenever that is
/// enabled (the default), and is inert (no clock, no allocation) when both
/// are off. `name` must have static storage duration (string literals).
class Span {
 public:
  explicit Span(const char* name);
  /// The detail string is only constructed into the span when the tracer or
  /// the flight recorder will record it; callers on hot paths should prefer
  /// the name-only overload or setDetail() under `if (active())`.
  Span(const char* name, std::string detail);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is being recorded by the tracer (enabled at open).
  /// Deliberately excludes flight-only recording: hot paths use this to gate
  /// detail-string construction, which the bounded flight ring doesn't need.
  bool active() const { return id_ != 0; }
  /// Attaches/replaces the annotation; no-op on a tracer-inactive span.
  void setDetail(std::string detail);
  std::uint64_t id() const { return id_; }

 private:
  void open(const char* name);

  const char* name_;
  std::string detail_;
  std::uint64_t id_ = 0;      // 0 = not traced
  std::uint64_t parent_ = 0;
  std::int64_t startUs_ = 0;
  bool flight_ = false;       // recorded into the flight ring on close
};

#define AED_SPAN_CAT2(a, b) a##b
#define AED_SPAN_CAT(a, b) AED_SPAN_CAT2(a, b)
/// Opens an anonymous span for the rest of the enclosing scope.
#define AED_SPAN(name) ::aed::Span AED_SPAN_CAT(aedSpan_, __LINE__)(name)

}  // namespace aed
