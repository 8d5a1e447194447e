// Always-on flight recorder (introspection layer, DESIGN.md §12).
//
// Tracing (§10) answers "where did the time go" but must be switched on
// before the run; when a synthesis degrades, throws, or a deployment stage
// aborts in production, the interesting two seconds are already in the past.
// The flight recorder keeps them: every Span close and every log line is
// additionally written into a bounded per-thread ring buffer of fixed-size
// POD slots, always on by default, and the rings are rendered into a
// self-contained JSON post-mortem ("flight dump") at the moment of failure —
// recent spans and log lines in global order, the metrics snapshot, the
// error code, and caller-supplied context such as per-subproblem states.
//
// Memory budget: the ring is part of the thread's one log (obs/trace.hpp),
// kEventsPerThread slots of sizeof(Event) bytes (~32 KiB per thread, see the
// constants below) — allocated once per thread, never grown, oldest events
// overwritten. An event's tid is its thread's log index, so a dump lines up
// with a Chrome trace of the same run by thread. Exited threads hand their
// ring to the log's process-wide collector, which keeps only the newest
// kRetiredEventCap of those events, so the whole recorder is O(threads)
// memory no matter how long the process runs.
//
// Cost model: recording is two steady-clock reads plus a bounded copy into
// the caller's own log under the log's lock — the lock is only ever
// contended by a collect() or clear(), so steady-state recording never
// blocks on other recording threads and never allocates. Event text is
// truncated into a fixed char array (no std::string).
// FlightRecorder::setEnabled(false) restores the §10 inert-span fast path
// (one relaxed load, no clock read) — that is the configuration the <250 ns
// disabled-span budget in bench_obs measures; bench_obs reports flight-on
// recording as obs/spanFlight.
//
// Dump triggers: core/aed.cpp calls maybeDump() from its finalize path when
// a run exits degraded/failed/thrown, apply/deploy.cpp when a stage
// aborts, and src/check/fuzz.cpp renders a dump per failing seed so
// aed_check can ship it next to the shrunk repro. A dump is only written
// when a destination is configured — setDumpPath() or the AED_FLIGHT_OUT
// environment variable — so library users who never opt in get the ring
// overhead only, never surprise files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aed {

class FlightRecorder {
 public:
  /// Ring capacity per thread; tuned so a ring holds the last few hundred
  /// spans/log lines of its thread (several repair rounds of context).
  static constexpr std::size_t kEventsPerThread = 256;
  /// Max characters of event text kept per slot (longer text is truncated).
  static constexpr std::size_t kTextCapacity = 95;
  /// Cap on events retained from exited threads.
  static constexpr std::size_t kRetiredEventCap = 1024;

  /// One recorded slot. POD: fixed-size, no heap.
  struct Event {
    std::uint64_t seq = 0;    // global record order; never 0 for a live slot
    std::int64_t timeUs = 0;  // microseconds since the tracer epoch
    std::int64_t durUs = 0;   // span duration; 0 for log lines
    std::uint32_t tid = 0;    // the thread's log index, as in TraceEvent
    char kind = 's';          // 's' span, 'l' log
    char text[kTextCapacity + 1] = {0};
  };

  /// Context a dump site supplies; `sections` are (key, pre-rendered JSON
  /// value) pairs appended verbatim to the dump object, which keeps this
  /// layer free of core types.
  struct DumpContext {
    std::string reason;     // "synthesize-degraded", "deploy-abort", ...
    std::string errorCode;  // errorCodeName() of the classified failure
    std::string detail;     // human-readable one-liner
    std::vector<std::pair<std::string, std::string>> sections;
  };

  /// Recording toggle; on by default (this is a flight recorder).
  static void setEnabled(bool enabled);
  static bool enabled();

  /// Records one log line (already formatted, single line).
  static void recordLog(const char* level, std::string_view line);

  /// All currently-buffered events across threads (live rings + retired),
  /// in global record (seq) order.
  static std::vector<Event> collect();
  /// Drops every buffered event.
  static void clear();

  /// Where maybeDump() writes; empty disables dumping. The AED_FLIGHT_OUT
  /// environment variable seeds the path at first use.
  static void setDumpPath(std::string path);
  static std::string dumpPath();

  /// Renders the post-mortem JSON: recorder events, the global metrics
  /// snapshot, and the context. Always available (independent of dumpPath).
  static std::string renderDump(const DumpContext& context);

  /// Writes renderDump() to dumpPath() if one is configured (overwriting —
  /// the outermost failure wins). Returns the path written, or empty when
  /// dumping is not configured or the file cannot be written.
  static std::string maybeDump(const DumpContext& context);
};

}  // namespace aed
