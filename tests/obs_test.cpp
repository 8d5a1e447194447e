// Unified tracing & metrics layer (src/obs) plus the introspection layer
// riding on it (§12) and the concurrency/accounting hardening: span nesting
// within and across ThreadPool workers, Chrome trace-event JSON validity,
// counter-registry merge semantics, histogram buckets/quantiles/merge,
// Prometheus and JSON export validity, the flight recorder (ring
// wraparound, dump-on-failure for every exit class, concurrent writes, the
// retired-event cap, one tid per thread shared with the tracer),
// solver introspection surfaced per subproblem, the disabled-mode
// zero-allocation guarantee, logger line atomicity under thread stress, and
// stats attribution on failed and thrown synthesis runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

// ---- global allocation counting (for the disabled-mode zero-alloc test) ----
// Replaces the global allocator for this test binary; counting is gated by a
// flag so the surrounding gtest machinery does not pollute the window.

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::size_t> g_allocCount{0};

void* countedAlloc(std::size_t size) {
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace aed {
namespace {

using aed::testing::figure1ConfigText;

PolicySet figure1AllPolicies() {
  return {aed::testing::figure1P1(), aed::testing::figure1P2(),
          aed::testing::figure1P3()};
}

/// Fresh tracer/flight state per test; restores the defaults afterwards
/// (tracer off, flight recorder on, no dump path).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::disable();
    Tracer::clear();
    FlightRecorder::setEnabled(true);
    FlightRecorder::setDumpPath("");
    FlightRecorder::clear();
  }
  void TearDown() override {
    Tracer::disable();
    Tracer::clear();
    FlightRecorder::setEnabled(true);
    FlightRecorder::setDumpPath("");
    FlightRecorder::clear();
    setLogSink(nullptr);
    setLogLevel(LogLevel::kWarn);
  }
};

std::map<std::uint64_t, TraceEvent> byId(
    const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, TraceEvent> map;
  for (const TraceEvent& event : events) map[event.id] = event;
  return map;
}

const TraceEvent* findByName(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  for (const TraceEvent& event : events) {
    if (name == event.name) return &event;
  }
  return nullptr;
}

/// Walks the parent chain of `id`; true if it reaches `ancestor`.
bool hasAncestor(const std::map<std::uint64_t, TraceEvent>& events,
                 std::uint64_t id, std::uint64_t ancestor) {
  std::uint64_t cursor = events.at(id).parent;
  for (int hops = 0; hops < 64 && cursor != 0; ++hops) {
    if (cursor == ancestor) return true;
    const auto it = events.find(cursor);
    if (it == events.end()) return false;
    cursor = it->second.parent;
  }
  return false;
}

// ---- span nesting -----------------------------------------------------------

TEST_F(ObsTest, SpansNestOnOneThread) {
  Tracer::enable();
  std::uint64_t outerId = 0, midId = 0, innerId = 0;
  {
    Span outer("t.outer");
    outerId = outer.id();
    {
      Span mid("t.mid");
      midId = mid.id();
      {
        Span inner("t.inner");
        innerId = inner.id();
      }
    }
  }
  const auto events = byId(Tracer::collect());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.at(outerId).parent, 0u);
  EXPECT_EQ(events.at(midId).parent, outerId);
  EXPECT_EQ(events.at(innerId).parent, midId);
  // Sibling after a closed child adopts the original parent again.
  {
    Span outer("t.outer2");
    { Span a("t.a"); }
    { Span b("t.b"); }
    const std::uint64_t outer2 = outer.id();
    const auto again = byId(Tracer::collect());
    EXPECT_EQ(again.at(outer2 + 1).parent, outer2);
    EXPECT_EQ(again.at(outer2 + 2).parent, outer2);
  }
}

TEST_F(ObsTest, WorkerSpansParentUnderTheSubmittingSpan) {
  Tracer::enable();
  std::uint64_t outerId = 0;
  std::uint32_t mainTid = 0;
  {
    Span outer("t.submit");
    outerId = outer.id();
    { Span probe("t.main_probe"); }
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(pool.submit([] { Span task("t.task"); }));
    }
    for (auto& future : futures) future.get();
  }
  const auto events = Tracer::collect();
  const TraceEvent* probe = findByName(events, "t.main_probe");
  ASSERT_NE(probe, nullptr);
  mainTid = probe->tid;
  std::size_t tasks = 0;
  for (const TraceEvent& event : events) {
    if (std::string("t.task") != event.name) continue;
    ++tasks;
    EXPECT_EQ(event.parent, outerId);   // linked across the thread boundary
    EXPECT_NE(event.tid, mainTid);      // but recorded on a worker thread
  }
  EXPECT_EQ(tasks, 4u);
}

TEST_F(ObsTest, ScopedParentInstallsAndRestoresContext) {
  Tracer::enable();
  std::uint64_t outerId = 0, detachedId = 0, reattachedId = 0;
  {
    Span outer("t.outer");
    outerId = outer.id();
    {
      const Tracer::ScopedParent detach(0);
      Span orphan("t.orphan");
      detachedId = orphan.id();
    }
    Span child("t.child");
    reattachedId = child.id();
  }
  const auto events = byId(Tracer::collect());
  EXPECT_EQ(events.at(detachedId).parent, 0u);
  EXPECT_EQ(events.at(reattachedId).parent, outerId);
}

// ---- disabled mode ----------------------------------------------------------

TEST_F(ObsTest, DisabledSpansRecordNothingAndNeverAllocate) {
  // Fully disabled means tracer off AND flight recorder off; the flight
  // recorder defaults on, so the zero-alloc guarantee is for the opted-out
  // configuration.
  ASSERT_FALSE(Tracer::enabled());
  FlightRecorder::setEnabled(false);
  g_allocCount.store(0);
  g_countAllocs.store(true);
  for (int i = 0; i < 1000; ++i) {
    AED_SPAN("t.disabled");
  }
  g_countAllocs.store(false);
  EXPECT_EQ(g_allocCount.load(), 0u);
  EXPECT_TRUE(Tracer::collect().empty());
  EXPECT_TRUE(FlightRecorder::collect().empty());
}

TEST_F(ObsTest, SpanOpenedWhileDisabledStaysUnrecorded) {
  std::optional<Span> span;
  span.emplace("t.late");
  Tracer::enable();
  span.reset();  // closes after enable(): still not recorded
  EXPECT_TRUE(Tracer::collect().empty());
}

// ---- Chrome trace export ----------------------------------------------------

/// Minimal recursive-descent JSON validator: syntax only, no value model.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}
  bool valid() {
    const bool ok = value();
    skipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }
  bool string() {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters must be escaped
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      skipWs();
      if (!string() || !consume(':') || !value()) return false;
    } while (consume(','));
    return consume('}');
  }
  bool array() {
    if (!consume('[')) return false;
    if (consume(']')) return true;
    do {
      if (!value()) return false;
    } while (consume(','));
    return consume(']');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST_F(ObsTest, ChromeTraceJsonIsSyntacticallyValidAndComplete) {
  Tracer::enable();
  {
    Span outer("t.export");
    Span weird("t.detail", "quote=\" backslash=\\ newline=\nend");
    { AED_SPAN("t.nested"); }
  }
  const std::vector<TraceEvent> events = Tracer::collect();
  ASSERT_EQ(events.size(), 3u);

  std::ostringstream out;
  Tracer::writeChromeTrace(out);
  const std::string json = out.str();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t.export\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t.nested\""), std::string::npos);
  EXPECT_NE(json.find("quote=\\\""), std::string::npos);

  // One complete ("ph":"X") record per collected event, each carrying the
  // required trace-event fields.
  std::size_t records = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++records;
  }
  EXPECT_EQ(records, events.size());
  for (const char* field : {"\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":",
                            "\"args\":", "\"cat\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

// ---- counter registry -------------------------------------------------------

TEST_F(ObsTest, CountersSumAndGaugesOverwriteOnMerge) {
  MetricsRegistry a;
  a.add("runs", 2.0);
  a.set("last_seconds", 1.5);

  MetricsRegistry b;
  b.add("runs", 3.0);
  b.add("extra", 7.0);
  b.set("last_seconds", 9.5);

  a.merge(b.snapshot());
  EXPECT_DOUBLE_EQ(a.value("runs"), 5.0);          // counter: sum
  EXPECT_DOUBLE_EQ(a.value("last_seconds"), 9.5);  // gauge: overwrite
  EXPECT_DOUBLE_EQ(a.value("extra"), 7.0);         // new names registered
  EXPECT_DOUBLE_EQ(a.value("never_recorded"), 0.0);

  // Merging is associative over counters: a second merge adds again.
  a.merge(b.snapshot());
  EXPECT_DOUBLE_EQ(a.value("runs"), 8.0);
  EXPECT_DOUBLE_EQ(a.value("last_seconds"), 9.5);
}

TEST_F(ObsTest, MetricHandlesStayValidAcrossRegistrationsAndReset) {
  MetricsRegistry registry;
  const MetricsRegistry::Metric early = registry.counter("early");
  early.add(4.0);
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler_" + std::to_string(i)).incr();
  }
  early.add(1.0);  // handle survives 100 later registrations (node stability)
  EXPECT_DOUBLE_EQ(registry.value("early"), 5.0);

  registry.reset();
  EXPECT_DOUBLE_EQ(registry.value("early"), 0.0);
  early.add(2.0);  // handles also survive reset()
  EXPECT_DOUBLE_EQ(registry.value("early"), 2.0);

  const auto samples = registry.snapshot();
  EXPECT_EQ(samples.size(), 101u);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                             [](const auto& x, const auto& y) {
                               return x.name < y.name;
                             }));
}

TEST_F(ObsTest, SummaryTableListsEveryMetric) {
  MetricsRegistry registry;
  registry.add("aed.runs", 3.0);
  registry.set("aed.last_total_seconds", 0.25);
  const std::string table = registry.summaryTable();
  EXPECT_NE(table.find("aed.runs"), std::string::npos);
  EXPECT_NE(table.find("3"), std::string::npos);
  EXPECT_NE(table.find("aed.last_total_seconds"), std::string::npos);
  EXPECT_NE(table.find("0.25"), std::string::npos);
  EXPECT_NE(table.find("(gauge)"), std::string::npos);
}

// ---- logger -----------------------------------------------------------------

TEST_F(ObsTest, ConcurrentLogLinesNeverInterleave) {
  // The sink sees exactly what a single fwrite would emit; it runs under the
  // logger mutex, so the vector needs no extra synchronization.
  std::vector<std::string> lines;
  setLogSink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  setLogLevel(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  const std::string filler(64, 'x');
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &filler] {
      for (int i = 0; i < kLines; ++i) {
        logInfo() << "thread " << t << " seq " << i << " " << filler << "|end";
      }
    });
  }
  for (auto& thread : threads) thread.join();
  setLogSink(nullptr);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kLines));
  std::map<int, std::set<int>> seqs;
  for (const std::string& line : lines) {
    // Every line is intact: prefix, both numbers, filler, terminator.
    ASSERT_EQ(line.rfind("[aed INFO ] thread ", 0), 0u) << line;
    ASSERT_NE(line.find(filler + "|end\n"), std::string::npos) << line;
    int t = -1, i = -1;
    ASSERT_EQ(std::sscanf(line.c_str(), "[aed INFO ] thread %d seq %d", &t,
                          &i),
              2)
        << line;
    EXPECT_TRUE(seqs[t].insert(i).second) << "duplicate line: " << line;
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seqs[t].size(), static_cast<std::size_t>(kLines));
  }
}

TEST_F(ObsTest, LogLinesAreCountedInTheRegistry) {
  setLogSink([](LogLevel, const std::string&) {});
  const double before = MetricsRegistry::global().value("log.warn_lines");
  logWarn() << "counted";
  logWarn() << "counted again";
  EXPECT_DOUBLE_EQ(MetricsRegistry::global().value("log.warn_lines"),
                   before + 2.0);
}

// ---- tracer stress (the TSan target) ---------------------------------------

TEST_F(ObsTest, ConcurrentSpansAndExportsAreRaceFree) {
  // Bounded recorder work (not spin-until-stop): under TSan on a small
  // machine unbounded recorders outpace the exporter — whose collect()
  // copies and sorts the whole buffer — and the backlog grows without limit.
  Tracer::enable();
  constexpr int kSpansPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span outer("stress.outer");
        Span inner("stress.inner");
      }
    });
  }
  // Exporters race the recorders: collect + serialize + clear, repeatedly.
  for (int round = 0; round < 20; ++round) {
    std::ostringstream out;
    Tracer::writeChromeTrace(out);
    EXPECT_NE(out.str().find("traceEvents"), std::string::npos);
    Tracer::clear();
  }
  for (auto& thread : threads) thread.join();
  // Post-join sanity: recording still works after the concurrent churn.
  Tracer::clear();
  { Span tail("stress.tail"); }
  const auto events = Tracer::collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), "stress.tail");
}

// ---- histograms (§12) -------------------------------------------------------

TEST_F(ObsTest, HistogramBucketSchemeCoversTheRealLine) {
  // Non-positive and non-finite values land in the catch-all buckets.
  EXPECT_EQ(MetricsRegistry::bucketIndex(0.0), 0u);
  EXPECT_EQ(MetricsRegistry::bucketIndex(-3.0), 0u);
  EXPECT_EQ(MetricsRegistry::bucketIndex(1e300),
            MetricsRegistry::kHistogramBuckets - 1);
  // Every positive value falls inside its bucket's [lo, hi) range.
  for (const double v : {1e-9, 1e-6, 1e-3, 0.5, 1.0, 3.0, 1000.0, 1e9}) {
    const std::size_t i = MetricsRegistry::bucketIndex(v);
    ASSERT_LT(i, MetricsRegistry::kHistogramBuckets) << v;
    EXPECT_GE(v, MetricsRegistry::bucketLowerBound(i)) << v;
    EXPECT_LT(v, MetricsRegistry::bucketUpperBound(i)) << v;
  }
  // Edges are contiguous: bucket i's upper bound is bucket i+1's lower.
  for (std::size_t i = 0; i + 1 < MetricsRegistry::kHistogramBuckets; ++i) {
    EXPECT_DOUBLE_EQ(MetricsRegistry::bucketUpperBound(i),
                     MetricsRegistry::bucketLowerBound(i + 1));
  }
}

TEST_F(ObsTest, HistogramQuantilesMergeResetAndSummaryTable) {
  MetricsRegistry registry;
  const MetricsRegistry::Histogram hist =
      registry.histogram("t.check_seconds");
  for (int i = 1; i <= 100; ++i) hist.record(i * 0.001);  // 1ms..100ms
  EXPECT_EQ(hist.count(), 100u);
  // value() reports the sample count for histograms.
  EXPECT_DOUBLE_EQ(registry.value("t.check_seconds"), 100.0);

  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  const MetricsRegistry::Sample& sample = samples[0];
  EXPECT_EQ(sample.kind, MetricsRegistry::Kind::kHistogram);
  EXPECT_EQ(sample.count, 100u);
  EXPECT_NEAR(sample.sum, 5.05, 1e-9);
  const double p50 = MetricsRegistry::quantile(sample, 0.50);
  const double p90 = MetricsRegistry::quantile(sample, 0.90);
  const double p99 = MetricsRegistry::quantile(sample, 0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Power-of-two buckets bound the relative error by 2x.
  EXPECT_GE(p50, 0.050 / 2.0);
  EXPECT_LE(p50, 0.050 * 2.0);
  EXPECT_GE(p99, 0.099 / 2.0);
  EXPECT_LE(p99, 0.099 * 2.0);
  EXPECT_DOUBLE_EQ(MetricsRegistry::quantile(sample, 0.0),
                   MetricsRegistry::quantile(sample, 0.0));

  // Merge adds bucket-wise (count + sum follow).
  MetricsRegistry other;
  other.record("t.check_seconds", 0.004);
  other.merge(samples);
  EXPECT_DOUBLE_EQ(other.value("t.check_seconds"), 101.0);
  const auto merged = other.snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_NEAR(merged[0].sum, 5.054, 1e-9);

  // The summary table renders histograms with quantile estimates.
  const std::string table = other.summaryTable();
  EXPECT_NE(table.find("t.check_seconds"), std::string::npos);
  EXPECT_NE(table.find("(histogram)"), std::string::npos);
  EXPECT_NE(table.find("p50"), std::string::npos);

  // reset() zeroes values but keeps handles valid.
  registry.reset();
  EXPECT_EQ(hist.count(), 0u);
  hist.record(0.5);
  EXPECT_EQ(hist.count(), 1u);
}

// ---- machine-readable export ------------------------------------------------

TEST_F(ObsTest, PrometheusExportIsWellFormed) {
  MetricsRegistry registry;
  registry.add("aed.runs", 3.0);
  registry.set("sim.cache-fill%", 0.5);  // name needing sanitization
  registry.record("smt.check_seconds", 0.002);
  registry.record("smt.check_seconds", 0.004);
  const std::string text = metricsToPrometheus(registry.snapshot());

  EXPECT_NE(text.find("# TYPE aed_runs counter"), std::string::npos) << text;
  EXPECT_NE(text.find("aed_runs 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE sim_cache_fill_ gauge"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE smt_check_seconds histogram"),
            std::string::npos)
      << text;
  // Cumulative buckets: 0.002 and 0.004 land in adjacent power-of-two
  // buckets, so the second bucket's cumulative count is 2 — and the
  // mandatory +Inf bucket equals _count.
  EXPECT_NE(text.find("smt_check_seconds_bucket{le=\"0.00390625\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("smt_check_seconds_bucket{le=\"0.0078125\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("smt_check_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("smt_check_seconds_count 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("smt_check_seconds_sum 0.006"), std::string::npos)
      << text;
  // Every non-comment line is `name{labels} value` or `name value` with a
  // sanitized name.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    for (const char c : name) {
      const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '_' || c == ':' || c == '{' || c == '}' ||
                      c == '"' || c == '=' || c == '+' || c == '.';
      EXPECT_TRUE(ok) << line;
    }
  }
}

TEST_F(ObsTest, JsonExportIsValidAndSelfDescribing) {
  MetricsRegistry registry;
  registry.add("aed.runs", 2.0);
  registry.record("smt.check_seconds", 0.002);
  const std::string json = metricsToJson(registry.snapshot());
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  for (const char* field :
       {"\"metrics\"", "\"name\"", "\"kind\"", "\"histogram\"", "\"count\"",
        "\"p50\"", "\"p90\"", "\"p99\"", "\"buckets\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // An empty snapshot still renders valid JSON.
  const std::string empty = metricsToJson({});
  JsonChecker emptyChecker(empty);
  EXPECT_TRUE(emptyChecker.valid()) << empty;
}

TEST_F(ObsTest, JsonEscapePinsEveryEscapeClass) {
  EXPECT_EQ(jsonEscape("say \"hi\" \\ bye"), "say \\\"hi\\\" \\\\ bye");
  EXPECT_EQ(jsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(jsonEscape("\x01"), "\\u0001");
  EXPECT_EQ(jsonEscape("\x1f"), "\\u001f");
  // UTF-8 multi-byte sequences pass through byte for byte.
  EXPECT_EQ(jsonEscape("caf\xc3\xa9 \xe2\x86\x92"), "caf\xc3\xa9 \xe2\x86\x92");
}

TEST_F(ObsTest, ExportMetricsFilePicksFormatByExtension) {
  MetricsRegistry::global().add("t.export_probe", 1.0);
  const std::string jsonPath = "obs_test_metrics.json";
  const std::string promPath = "obs_test_metrics.prom";
  ASSERT_TRUE(exportMetricsFile(jsonPath));
  ASSERT_TRUE(exportMetricsFile(promPath));
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string json = slurp(jsonPath);
  const std::string prom = slurp(promPath);
  std::remove(jsonPath.c_str());
  std::remove(promPath.c_str());
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
  EXPECT_NE(json.find("t.export_probe"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE t_export_probe counter"), std::string::npos);
}

// ---- flight recorder --------------------------------------------------------

TEST_F(ObsTest, FlightRingWrapsAndKeepsTheNewestEvents) {
  constexpr std::size_t kCap = FlightRecorder::kEventsPerThread;
  const std::size_t total = kCap + 50;
  for (std::size_t i = 0; i < total; ++i) {
    FlightRecorder::recordLog("INFO", "line-" + std::to_string(i));
  }
  const auto events = FlightRecorder::collect();
  ASSERT_EQ(events.size(), kCap);
  // Oldest events were overwritten; exactly the newest kCap survive, in
  // global seq order.
  EXPECT_EQ(std::string_view(events.front().text),
            "INFO line-" + std::to_string(total - kCap));
  EXPECT_EQ(std::string_view(events.back().text),
            "INFO line-" + std::to_string(total - 1));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  FlightRecorder::clear();
  EXPECT_TRUE(FlightRecorder::collect().empty());
}

TEST_F(ObsTest, FlightRecorderCapturesSpansAndTruncatesText) {
  ASSERT_FALSE(Tracer::enabled());  // flight capture works without tracing
  {
    Span span("t.flight", "detail-value");
  }
  const std::string longDetail(300, 'x');
  {
    Span span("t.long", std::string(longDetail));
  }
  const auto events = FlightRecorder::collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, 's');
  EXPECT_EQ(std::string_view(events[0].text), "t.flight detail-value");
  EXPECT_GE(events[0].durUs, 0);
  EXPECT_EQ(std::strlen(events[1].text), FlightRecorder::kTextCapacity);
  // Tracer stayed empty: the ring write is independent of tracing.
  EXPECT_TRUE(Tracer::collect().empty());
}

TEST_F(ObsTest, FlightDumpRenderIsValidJsonWithSections) {
  FlightRecorder::recordLog("WARN", "something odd");
  {
    Span span("t.render");
  }
  FlightRecorder::DumpContext ctx;
  ctx.reason = "unit-test";
  ctx.errorCode = "internal";
  ctx.detail = "detail with \"quotes\" and\nnewline";
  ctx.sections.emplace_back("subproblems", "[{\"index\": 0}]");
  const std::string dump = FlightRecorder::renderDump(ctx);
  JsonChecker checker(dump);
  EXPECT_TRUE(checker.valid()) << dump;
  for (const char* field :
       {"\"aed_flight_dump\"", "\"reason\": \"unit-test\"", "\"error_code\"",
        "\"events\"", "\"kind\": \"log\"", "\"kind\": \"span\"",
        "\"metrics\"", "\"subproblems\""}) {
    EXPECT_NE(dump.find(field), std::string::npos) << field;
  }
}

TEST_F(ObsTest, MaybeDumpRequiresAConfiguredPath) {
  FlightRecorder::DumpContext ctx;
  ctx.reason = "no-path";
  EXPECT_EQ(FlightRecorder::maybeDump(ctx), "");
  const std::string path = "obs_test_dump.json";
  FlightRecorder::setDumpPath(path);
  EXPECT_EQ(FlightRecorder::maybeDump(ctx), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  EXPECT_NE(buffer.str().find("no-path"), std::string::npos);
}

/// Reads and deletes a dump file; empty string when it does not exist.
std::string consumeDump(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return buffer.str();
}

TEST_F(ObsTest, FlightDumpWrittenOnCancelledRun) {
  const std::string path = "obs_test_cancel.flight.json";
  FlightRecorder::setDumpPath(path);
  AedOptions options;
  options.cancel = std::make_shared<CancelToken>();
  options.cancel->requestStop();
  const AedResult result =
      synthesize(parseNetworkConfig(figure1ConfigText()),
                 figure1AllPolicies(), {}, options);
  ASSERT_FALSE(result.success);
  const std::string dump = consumeDump(path);
  ASSERT_FALSE(dump.empty());
  JsonChecker checker(dump);
  EXPECT_TRUE(checker.valid()) << dump;
  EXPECT_NE(dump.find("\"reason\": \"synthesize-failed\""),
            std::string::npos);
  EXPECT_NE(dump.find(errorCodeName(ErrorCode::kCancelled)),
            std::string::npos);
  EXPECT_NE(dump.find("\"subproblems\""), std::string::npos);
}

TEST_F(ObsTest, FlightDumpWrittenOnThrownRun) {
  const std::string path = "obs_test_thrown.flight.json";
  FlightRecorder::setDumpPath(path);
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  bool corrupted = false;
  tree.root().visit([&corrupted](Node& node) {
    if (!corrupted && node.attrs().count("seq") != 0) {
      node.setAttr("seq", "bogus");
      corrupted = true;
    }
  });
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(synthesize(tree, figure1AllPolicies()), AedError);
  const std::string dump = consumeDump(path);
  ASSERT_FALSE(dump.empty());
  JsonChecker checker(dump);
  EXPECT_TRUE(checker.valid()) << dump;
  EXPECT_NE(dump.find("\"reason\": \"synthesize-failed\""),
            std::string::npos);
  // The dump names the exception the run threw, not a generic failure.
  EXPECT_NE(dump.find("\"error_code\": \"parse-error\""), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("invalid integer 'bogus'"), std::string::npos) << dump;
}

TEST_F(ObsTest, FlightDumpWrittenOnDegradedRun) {
  const std::string path = "obs_test_degraded.flight.json";
  FlightRecorder::setDumpPath(path);
  AedOptions options;
  options.faultInjection.kind = FaultInjection::Kind::kUnknown;
  const AedResult result =
      synthesize(parseNetworkConfig(figure1ConfigText()),
                 figure1AllPolicies(), {}, options);
  const std::string dump = consumeDump(path);
  ASSERT_FALSE(dump.empty()) << "degraded run must leave a dump";
  JsonChecker checker(dump);
  EXPECT_TRUE(checker.valid()) << dump;
  EXPECT_NE(dump.find(result.success ? "synthesize-degraded"
                                     : "synthesize-failed"),
            std::string::npos);
  // The per-subproblem section records which ladder rung answered.
  EXPECT_NE(dump.find("\"rung\""), std::string::npos);
}

TEST_F(ObsTest, FlightDumpWrittenOnSubproblemThrowFault) {
  // kThrow is an isolatable failure: the poisoned subproblem is recorded as
  // failed but sibling work survives, so the run exits degraded (or failed
  // when nothing else succeeded) — either way a dump must be written.
  const std::string path = "obs_test_subthrow.flight.json";
  FlightRecorder::setDumpPath(path);
  AedOptions options;
  options.faultInjection.kind = FaultInjection::Kind::kThrow;
  const AedResult result =
      synthesize(parseNetworkConfig(figure1ConfigText()),
                 figure1AllPolicies(), {}, options);
  ASSERT_TRUE(!result.success || result.degraded);
  const std::string dump = consumeDump(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find(result.success ? "synthesize-degraded"
                                     : "synthesize-failed"),
            std::string::npos);
  // The poisoned subproblem's state is in the dump's subproblems section.
  EXPECT_NE(dump.find("\"outcome\": \"error\""), std::string::npos);
}

TEST_F(ObsTest, FlightDumpWrittenOnDeployAbort) {
  // Direct executeDeployment: the dump carries the deploy-abort reason and
  // the per-stage section (when a deployment aborts inside synthesize(),
  // the outer synthesize-degraded dump overwrites this one — outermost
  // failure wins).
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_FALSE(result.patch.empty());

  const std::string path = "obs_test_deploy.flight.json";
  FlightRecorder::setDumpPath(path);
  DeploymentPlan plan = planStagedRollout(tree, result.patch, policies);
  ASSERT_FALSE(plan.stages.empty());
  FaultInjection fault;
  fault.kind = FaultInjection::Kind::kStageCommitFailure;
  fault.applyStage = 0;
  fault.applyEdit = 0;
  ConfigTree staged = tree.clone();
  ASSERT_FALSE(executeDeployment(staged, plan, {}, fault));
  const std::string dump = consumeDump(path);
  ASSERT_FALSE(dump.empty());
  JsonChecker checker(dump);
  EXPECT_TRUE(checker.valid()) << dump;
  EXPECT_NE(dump.find("\"reason\": \"deploy-abort\""), std::string::npos);
  EXPECT_NE(dump.find("\"stages\""), std::string::npos);
  EXPECT_NE(dump.find("rolled_back"), std::string::npos);
}

TEST_F(ObsTest, NoFlightDumpOnCleanRun) {
  const std::string path = "obs_test_clean.flight.json";
  FlightRecorder::setDumpPath(path);
  const AedResult result = synthesize(
      parseNetworkConfig(figure1ConfigText()), figure1AllPolicies());
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_FALSE(result.degraded);
  EXPECT_EQ(consumeDump(path), "");  // no dump file written
}

// Concurrent flight-ring writes racing collectors (the TSan target): worker
// threads record spans and log lines while the main thread repeatedly
// collects, renders, and clears.
TEST_F(ObsTest, ConcurrentFlightWritesAndCollectsAreRaceFree) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 3000; ++i) {
        Span span("flight.stress");
        std::string line = "t";
        line += std::to_string(t);
        line += " i";
        line += std::to_string(i);
        FlightRecorder::recordLog("INFO", line);
      }
    });
  }
  FlightRecorder::DumpContext ctx;
  ctx.reason = "stress";
  for (int round = 0; round < 20; ++round) {
    const auto events = FlightRecorder::collect();
    for (std::size_t i = 1; i < events.size(); ++i) {
      ASSERT_LT(events[i - 1].seq, events[i].seq);
    }
    const std::string dump = FlightRecorder::renderDump(ctx);
    EXPECT_NE(dump.find("\"aed_flight_dump\""), std::string::npos);
    if (round % 5 == 4) FlightRecorder::clear();
  }
  for (auto& thread : threads) thread.join();
  // Post-join sanity: the recorder still works after the churn.
  FlightRecorder::clear();
  FlightRecorder::recordLog("INFO", "tail");
  const auto events = FlightRecorder::collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string_view(events[0].text), "INFO tail");
}

// The tracer and the flight recorder write one log per thread, so a dump and
// a trace of the same run can be lined up by thread. The first thread
// records into the flight ring only, which must not shift the numbering.
TEST_F(ObsTest, OneThreadHasOneTidInTracesAndFlightDumps) {
  std::thread([] { FlightRecorder::recordLog("INFO", "flight only"); }).join();
  Tracer::enable();
  std::thread([] { Span span("t.tid"); }).join();
  const auto traced = Tracer::collect();
  const TraceEvent* span = findByName(traced, "t.tid");
  ASSERT_NE(span, nullptr);
  std::optional<std::uint32_t> flightTid;
  for (const FlightRecorder::Event& event : FlightRecorder::collect()) {
    if (std::string_view(event.text) == "t.tid") flightTid = event.tid;
  }
  ASSERT_TRUE(flightTid.has_value());
  EXPECT_EQ(*flightTid, span->tid);
}

// An exiting thread hands its log to the collector: every traced span
// survives, and the flight events of all exited threads are cut to the
// newest kRetiredEventCap.
TEST_F(ObsTest, ExitedThreadsLeaveEverySpanAndTheNewestFlightEvents) {
  constexpr std::size_t kRing = FlightRecorder::kEventsPerThread;
  constexpr std::size_t kSpans = kRing + 40;  // overfills each ring
  constexpr std::size_t kThreads =
      FlightRecorder::kRetiredEventCap / kRing + 2;  // overfills the cap
  constexpr std::string_view kPrefix = "t.exit ";
  const auto detail = [](std::size_t thread, std::size_t i) {
    return std::to_string(thread) + " " + std::to_string(i);
  };
  Tracer::enable();
  // One thread at a time, so each thread's events follow the previous
  // thread's in seq order.
  std::vector<std::string> left;  // each ring at its thread's exit, in order
  for (std::size_t thread = 0; thread < kThreads; ++thread) {
    std::thread([thread, detail] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        Span span("t.exit", detail(thread, i));
      }
    }).join();
    for (std::size_t i = kSpans - kRing; i < kSpans; ++i) {
      left.push_back(std::string(kPrefix) + detail(thread, i));
    }
  }
  Tracer::disable();

  std::vector<std::uint32_t> tids(kThreads, 0);
  std::size_t spans = 0;
  for (const TraceEvent& event : Tracer::collect()) {
    if (std::string_view(event.name) != "t.exit") continue;
    ++spans;
    std::uint32_t& tid = tids.at(std::stoul(event.detail));
    if (tid == 0) tid = event.tid;
    EXPECT_EQ(event.tid, tid) << event.detail;
  }
  EXPECT_EQ(spans, kThreads * kSpans);
  EXPECT_EQ(std::set<std::uint32_t>(tids.begin(), tids.end()).size(),
            kThreads);

  const std::vector<std::string> expected(
      left.end() - FlightRecorder::kRetiredEventCap, left.end());
  std::vector<std::string> kept;
  std::uint64_t lastSeq = 0;
  for (const FlightRecorder::Event& event : FlightRecorder::collect()) {
    const std::string_view eventText(event.text);
    if (eventText.rfind(kPrefix, 0) != 0) continue;
    kept.emplace_back(eventText);
    EXPECT_GT(event.seq, lastSeq);
    lastSeq = event.seq;
    const std::size_t thread =
        std::stoul(std::string(eventText.substr(kPrefix.size())));
    EXPECT_EQ(event.tid, tids.at(thread)) << eventText;
  }
  EXPECT_EQ(kept, expected);
}

TEST_F(ObsTest, LogLinesReachTheFlightRing) {
  setLogSink([](LogLevel, const std::string&) {});
  logWarn() << "ring-bound warning";
  const auto events = FlightRecorder::collect();
  bool found = false;
  for (const auto& event : events) {
    if (event.kind == 'l' &&
        std::string_view(event.text).find("ring-bound warning") !=
            std::string_view::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- solver introspection ---------------------------------------------------

// Every report either ran a check, and shows its rung and Z3 effort, or
// belongs to a group the input already satisfies, which ran none and says
// why. Figure 1 has both kinds: P1 and P2 hold before the update, P3 not.
TEST_F(ObsTest, SolverStatsSurfaceInSubproblemReports) {
  const AedResult result = synthesize(
      parseNetworkConfig(figure1ConfigText()), figure1AllPolicies());
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_FALSE(result.subproblems.empty());
  std::size_t rungTotal = 0;
  for (const std::size_t count : result.stats.rungCounts) rungTotal += count;
  EXPECT_EQ(result.stats.rungCounts[static_cast<std::size_t>(
                SolveRung::kNone)],
            0u);
  std::size_t checked = 0;
  std::size_t inputSatisfied = 0;
  for (const SubproblemReport& report : result.subproblems) {
    if (report.rung == SolveRung::kNone) {
      ++inputSatisfied;
      EXPECT_EQ(report.outcome, SubOutcome::kOk) << report.destination;
      EXPECT_NE(report.rungReason.find("input satisfied"), std::string::npos)
          << report.destination << ": " << report.rungReason;
      EXPECT_EQ(report.solverStats.checks, 0u) << report.destination;
      EXPECT_EQ(report.solverStats.vars, 0u) << report.destination;
      continue;
    }
    ++checked;
    EXPECT_NE(std::string(solveRungName(report.rung)), "none");
    EXPECT_GE(report.solverStats.checks, 1u) << report.destination;
    EXPECT_GT(report.solverStats.vars, 0u) << report.destination;
    EXPECT_GT(report.solverStats.assertions, 0u) << report.destination;
  }
  EXPECT_GE(checked, 1u);
  EXPECT_GE(inputSatisfied, 1u);
  EXPECT_GE(rungTotal, checked);
}

TEST_F(ObsTest, DegradationLadderReportsTheAnsweringRungAndWhy) {
  AedOptions options;
  options.faultInjection.kind = FaultInjection::Kind::kUnknown;
  const AedResult result =
      synthesize(parseNetworkConfig(figure1ConfigText()),
                 figure1AllPolicies(), {}, options);
  // The poisoned subproblem's search stops before its total-cost step, so a
  // lower rung must have answered — and the reason string explains it.
  bool sawDegradedRung = false;
  for (const SubproblemReport& report : result.subproblems) {
    if (report.rung == SolveRung::kNoMinimality ||
        report.rung == SolveRung::kHardOnly) {
      sawDegradedRung = true;
      EXPECT_FALSE(report.rungReason.empty());
    }
  }
  EXPECT_TRUE(sawDegradedRung);
}

// ---- snapshot completeness --------------------------------------------------

// Every known stat family must appear in the exported snapshot after a
// staged run: a mirroring regression (a legacy struct field that stops being
// published) fails here by name.
TEST_F(ObsTest, SnapshotContainsEveryKnownStatFamily) {
  AedOptions options;
  options.stagedDeployment = true;
  const AedResult result =
      synthesize(parseNetworkConfig(figure1ConfigText()),
                 figure1AllPolicies(), {}, options);
  ASSERT_TRUE(result.success) << result.error;

  std::set<std::string> names;
  for (const auto& sample : MetricsRegistry::global().snapshot()) {
    names.insert(sample.name);
  }
  for (const char* required : {
           // run accounting
           "aed.runs", "aed.subproblems", "aed.total_seconds",
           "aed.repair_rounds",
           // degradation-ladder outcome counts (mirrored even at zero)
           "smt.rung.warm_start", "smt.rung.full", "smt.rung.no_minimality",
           "smt.rung.hard_only", "smt.rung.unsat", "smt.rung.gave_up",
           // simulation cache accounting
           "sim.route_hits", "sim.route_misses",
           // deployment stage accounting
           "deploy.executions", "deploy.stages_committed",
           // latency histograms (§12)
           "smt.check_seconds", "aed.subproblem_seconds", "aed.round_seconds",
           "deploy.stage_validate_seconds",
           // solver-effort histograms
           "smt.conflicts", "smt.decisions",
       }) {
    EXPECT_TRUE(names.count(required) == 1)
        << "missing from snapshot: " << required;
  }
}

// ---- synthesis integration --------------------------------------------------

TEST_F(ObsTest, SynthesizeEmitsANestedSpanTreeCoveringTheRun) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();

  Tracer::enable();
  AedOptions options;
  options.workers = 2;  // force the ThreadPool path even on 1-core hosts
  options.stagedDeployment = true;
  const AedResult result = synthesize(tree, policies, {}, options);
  Tracer::disable();
  ASSERT_TRUE(result.success) << result.error;

  const std::vector<TraceEvent> events = Tracer::collect();
  const auto index = byId(events);
  const TraceEvent* root = findByName(events, "aed.synthesize");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);

  // The root span accounts for >= 95% of the reported wall clock.
  EXPECT_GE(static_cast<double>(root->durUs) * 1e-6,
            0.95 * result.stats.totalSeconds);

  // Every phase of the taxonomy shows up, and the cross-thread chain
  // subproblem -> round -> synthesize holds for every solve.
  for (const char* name :
       {"aed.topology", "aed.partition", "aed.round", "aed.subproblem",
        "subsolver.sketch", "subsolver.encode", "subsolver.solve", "smt.check",
        "aed.merge_apply", "aed.validate", "sim.violations", "aed.teardown",
        "subsolver.free"}) {
    EXPECT_NE(findByName(events, name), nullptr) << name;
  }
  std::size_t subproblems = 0;
  for (const TraceEvent& event : events) {
    if (std::string("aed.subproblem") != event.name) continue;
    ++subproblems;
    ASSERT_NE(index.find(event.parent), index.end());
    EXPECT_EQ(std::string(index.at(event.parent).name), "aed.round");
    EXPECT_TRUE(hasAncestor(index, event.id, root->id));
  }
  // >= because repair rounds (if any) open additional subproblem spans.
  EXPECT_GE(subproblems, result.stats.subproblems);
  for (const TraceEvent& event : events) {
    if (std::string("smt.check") != event.name) continue;
    EXPECT_TRUE(hasAncestor(index, event.id, root->id));
  }
  // Every simulator check — input check, validation, planner candidates and
  // deployment stages — runs on the calling thread.
  EXPECT_EQ(findByName(events, "sim.shard"), nullptr);
  std::size_t checks = 0;
  for (const TraceEvent& event : events) {
    if (std::string("sim.violations") != event.name) continue;
    ++checks;
    EXPECT_EQ(event.tid, root->tid) << event.detail;
  }
  EXPECT_GT(checks, 0u);
}

TEST_F(ObsTest, FailedRunsStillPopulateStatsAndMetrics) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();

  const double runsBefore = MetricsRegistry::global().value("aed.runs");
  const double failedBefore =
      MetricsRegistry::global().value("aed.runs_failed");

  AedOptions options;
  options.cancel = std::make_shared<CancelToken>();
  options.cancel->requestStop();  // deterministic failure before any solve
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_FALSE(result.success);
  EXPECT_EQ(result.errorCode, ErrorCode::kCancelled);

  // The degraded/failed exit is attributable: wall clock and per-subproblem
  // outcomes are populated even though no patch was produced.
  EXPECT_GT(result.stats.totalSeconds, 0.0);
  EXPECT_EQ(result.subproblems.size(), result.stats.subproblems);
  EXPECT_GT(result.stats.failedSubproblems, 0u);

  EXPECT_DOUBLE_EQ(MetricsRegistry::global().value("aed.runs"),
                   runsBefore + 1.0);
  EXPECT_DOUBLE_EQ(MetricsRegistry::global().value("aed.runs_failed"),
                   failedBefore + 1.0);
}

TEST_F(ObsTest, ThrownRunsStillPublishMetricsAndCloseSpans) {
  // Corrupt a numeric attribute the sketch/encoder must parse: the resulting
  // AedError(kParseError) is deterministic (not isolatable), so synthesize
  // rethrows it — but the unwind guard must still publish the run's stats,
  // and the RAII spans must still close.
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  bool corrupted = false;
  tree.root().visit([&corrupted](Node& node) {
    if (!corrupted && node.attrs().count("seq") != 0) {
      node.setAttr("seq", "bogus");
      corrupted = true;
    }
  });
  ASSERT_TRUE(corrupted);

  const double runsBefore = MetricsRegistry::global().value("aed.runs");
  const double failedBefore =
      MetricsRegistry::global().value("aed.runs_failed");

  Tracer::enable();
  EXPECT_THROW(synthesize(tree, figure1AllPolicies()), AedError);
  Tracer::disable();

  EXPECT_DOUBLE_EQ(MetricsRegistry::global().value("aed.runs"),
                   runsBefore + 1.0);
  EXPECT_DOUBLE_EQ(MetricsRegistry::global().value("aed.runs_failed"),
                   failedBefore + 1.0);

  // The synthesize span closed during unwinding and was recorded.
  const std::vector<TraceEvent> events = Tracer::collect();
  EXPECT_NE(findByName(events, "aed.synthesize"), nullptr);
}

// Parallel repair-heavy synthesis under the sanitizer jobs: forces several
// rounds of shared-state hand-off (blocked-delta lists, phase merges, stats
// publication) with real worker threads. The assertions are light; the value
// is the interleaving under TSan.
TEST_F(ObsTest, ParallelRepairRoundsKeepStatsConsistent) {
  // The figure-1 fixture has a unique fix, so blocking it would go unsat;
  // the withdrawn-subnet datacenter fixture (see incremental_test.cpp) has
  // several distinct fixes and converges after a forced rejection.
  DcParams params;
  params.racks = 3;
  params.aggs = 1;
  params.spines = 0;
  params.blockedPairFraction = 0.0;
  params.seed = 29;
  GeneratedNetwork net = generateDatacenter(params);
  const PolicySet policies = makeWithdrawnSubnetUpdate(net, "rack0");
  const ConfigTree& tree = net.tree;

  AedOptions options;
  options.workers = 4;
  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = 1;
  options.maxRepairIterations = 4;
  Tracer::enable();
  const AedResult result = synthesize(tree, policies, {}, options);
  Tracer::disable();
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GE(result.stats.repairRounds, 1u);

  const double phaseTotal = result.stats.firstRound.total() +
                            result.stats.repair.total();
  EXPECT_GT(phaseTotal, 0.0);
  EXPECT_GT(result.stats.totalSeconds, 0.0);
  const std::vector<TraceEvent> events = Tracer::collect();
  std::size_t rounds = 0;
  for (const TraceEvent& event : events) {
    if (std::string("aed.round") == event.name) ++rounds;
  }
  EXPECT_GE(rounds, 2u);
}

}  // namespace
}  // namespace aed
