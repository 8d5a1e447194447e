// The one main() of every bench binary: each bench file defines
// aedbench::registerCases(), and this file records the run's artifacts
// around registering and running its cases.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace {

/// Bench artifacts. When AED_TRACE_OUT names a file, tracing is enabled for
/// the whole bench run and the Chrome trace-event JSON is written there on
/// exit (CI uploads these next to the BENCH_*.json result files). Without
/// the env var, tracing stays disabled and the benches measure the zero-cost
/// path. AED_METRICS_OUT names a second artifact: the registry snapshot,
/// exported on exit as JSON (path ends in ".json") or Prometheus text.
struct TraceArtifact {
  std::string path;
  std::string metricsPath;
  TraceArtifact() {
    if (const char* env = std::getenv("AED_TRACE_OUT");
        env != nullptr && env[0] != '\0') {
      path = env;
      aed::Tracer::enable();
    }
    if (const char* env = std::getenv("AED_METRICS_OUT");
        env != nullptr && env[0] != '\0') {
      metricsPath = env;
    }
  }
  ~TraceArtifact() {
    if (!path.empty()) {
      if (aed::Tracer::writeChromeTrace(path)) {
        std::fprintf(stderr, "trace written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write trace file: %s\n", path.c_str());
      }
    }
    if (!metricsPath.empty()) {
      if (aed::exportMetricsFile(metricsPath)) {
        std::fprintf(stderr, "metrics snapshot written to %s\n",
                     metricsPath.c_str());
      } else {
        std::fprintf(stderr, "cannot write metrics file: %s\n",
                     metricsPath.c_str());
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const TraceArtifact artifacts;
  aedbench::registerCases();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
