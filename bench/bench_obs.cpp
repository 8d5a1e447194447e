// Overhead budget of the observability layer (DESIGN.md §10, §12).
//
// The tracer rides inside every hot loop of the engine, so its disabled-mode
// cost is a correctness property, not a nicety: spanDisabled asserts (at
// bench time) that a fully inert span — tracer off AND flight recorder off —
// costs well under the §10 budget of 250 ns (two relaxed atomic loads in
// practice), histogramRecord asserts the §12 histogram-record budget of
// 100 ns, and spanFlight/spanEnabled/traceExport keep the recording and
// export costs inspectable per run. A regression here would silently tax
// every phase the evaluation figures measure.
//
// Like the other benches, AED_TRACE_OUT=<file> makes the binary itself emit
// a Chrome trace artifact, and AED_METRICS_OUT=<file> a metrics snapshot.

#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>
#include <string_view>

#include "common.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using aed::FlightRecorder;
using aed::MetricsRegistry;
using aed::Span;
using aed::Tracer;

constexpr double kDisabledBudgetNs = 250.0;
constexpr double kHistogramBudgetNs = 100.0;

/// Create/destroy one span with tracing AND the flight recorder disabled.
/// This is the §10 inert fast path; the flight recorder defaults on, so the
/// bench disables it explicitly (its always-on cost is spanFlight below).
void spanDisabled(benchmark::State& state) {
  Tracer::disable();
  FlightRecorder::setEnabled(false);
  for (auto _ : state) {
    AED_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());

  // Re-measure outside the benchmark loop for the assertion so gbench
  // timer overhead does not count against the budget.
  constexpr int kProbe = 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbe; ++i) {
    AED_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    kProbe;
  FlightRecorder::setEnabled(true);
  state.counters["disabledNsPerSpan"] = ns;
  if (ns > kDisabledBudgetNs) {
    state.SkipWithError("disabled span exceeds the overhead budget");
  }
}

/// Create/destroy one span with only the flight recorder on (the production
/// default): two clock reads plus a bounded copy into the thread's ring.
void spanFlight(benchmark::State& state) {
  Tracer::disable();
  FlightRecorder::setEnabled(true);
  for (auto _ : state) {
    AED_SPAN("bench.flight");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  FlightRecorder::clear();
}

/// Histogram record through a cached handle (the per-SMT-check cost).
/// Asserts the §12 budget: three relaxed atomic RMWs, no locks.
void histogramRecord(benchmark::State& state) {
  MetricsRegistry registry;
  const MetricsRegistry::Histogram hist = registry.histogram("bench.hist");
  double value = 1e-6;
  for (auto _ : state) {
    hist.record(value);
    value += 1e-9;
  }
  state.SetItemsProcessed(state.iterations());

  constexpr int kProbe = 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbe; ++i) {
    hist.record(3.5e-3);
    benchmark::ClobberMemory();
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    kProbe;
  state.counters["recordNsPerSample"] = ns;
  if (ns > kHistogramBudgetNs) {
    state.SkipWithError("histogram record exceeds the overhead budget");
  }
}

/// Create/destroy one recorded span (tracing enabled).
void spanEnabled(benchmark::State& state) {
  Tracer::clear();
  Tracer::enable();
  for (auto _ : state) {
    AED_SPAN("bench.enabled");
    benchmark::ClobberMemory();
  }
  Tracer::disable();
  state.SetItemsProcessed(state.iterations());
  Tracer::clear();
}

/// Export cost: 10k spans through the Chrome-JSON writer.
void traceExport(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Tracer::clear();
    Tracer::enable();
    for (int i = 0; i < 10'000; ++i) {
      Span span("bench.export");
    }
    Tracer::disable();
    state.ResumeTiming();
    std::ostringstream out;
    Tracer::writeChromeTrace(out);
    benchmark::DoNotOptimize(out.str().size());
  }
  Tracer::clear();
}

/// Counter mutation through a cached handle (the worker-visible cost).
void metricAdd(benchmark::State& state) {
  MetricsRegistry registry;
  const MetricsRegistry::Metric metric = registry.counter("bench.counter");
  for (auto _ : state) {
    metric.add(1.0);
  }
  state.SetItemsProcessed(state.iterations());
}

/// End-to-end sanity: a small synthesize with tracing enabled produces a
/// span tree whose root covers the run. Keeps the integration cost visible;
/// the <5% disabled-mode budget on bench_incremental is asserted by the
/// microbench above (the e2e number is too Z3-noisy for a hard gate).
void synthesizeTraced(benchmark::State& state) {
  const aed::GeneratedNetwork net =
      aed::generateDatacenter(aedbench::dcPreset(8, 42));
  const aed::PolicyUpdate update =
      aed::makeReachabilityUpdate(net.tree, 2, 43);
  const aed::PolicySet policies = aedbench::concat(update);
  for (auto _ : state) {
    Tracer::clear();
    Tracer::enable();
    const aed::AedResult result = aed::synthesize(net.tree, policies);
    Tracer::disable();
    if (!result.success) {
      state.SkipWithError("synthesis failed");
      break;
    }
    const auto events = Tracer::collect();
    bool sawRoot = false;
    for (const auto& event : events) {
      if (std::string_view(event.name) == "aed.synthesize") sawRoot = true;
    }
    if (!sawRoot) {
      state.SkipWithError("no aed.synthesize span recorded");
      break;
    }
    state.counters["spans"] = static_cast<double>(events.size());
  }
  Tracer::clear();
}

}  // namespace

void aedbench::registerCases() {
  benchmark::RegisterBenchmark("obs/spanDisabled", spanDisabled);
  benchmark::RegisterBenchmark("obs/spanFlight", spanFlight);
  benchmark::RegisterBenchmark("obs/histogramRecord", histogramRecord);
  benchmark::RegisterBenchmark("obs/spanEnabled", spanEnabled);
  benchmark::RegisterBenchmark("obs/traceExport", traceExport)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("obs/metricAdd", metricAdd);
  benchmark::RegisterBenchmark("obs/synthesizeTraced", synthesizeTraced)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}
