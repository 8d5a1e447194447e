// Resilience layer overhead and behavior under pressure.
//
// Three questions a production deployment cares about:
//   1. overhead — what does threading a deadline through every subproblem
//      cost when the budget is generous and never binds? (Should be noise.)
//   2. degradation quality — when the budget is tight, how much of the
//      policy set still gets a patch, and how much churn does the anytime
//      ladder's hard-only rung add over the MaxSMT optimum?
//   3. fault isolation — with one poisoned destination, how much of the
//      remaining work survives?
//
// Counters: degradedSubproblems / failedSubproblems straight from AedStats,
// survivorPct = usable subproblems / total.
//
// Run: ./build/bench/bench_resilience

#include "common.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::requireCorrect;

void overheadCase(benchmark::State& state, int routers,
                  std::uint64_t budgetMs) {
  const GeneratedNetwork net = generateDatacenter(dcPreset(routers, 29));
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 4, 311, 24);
  const PolicySet all = concat(update);

  for (auto _ : state) {
    AedOptions options;
    options.timeBudgetMs = budgetMs;  // 0 = deadline machinery disabled
    const AedResult r = synthesize(net.tree, all, {}, options);
    if (!r.success) return state.SkipWithError(r.error.c_str());
    requireCorrect(r.updated, all, state);
    state.counters["toolSeconds"] = r.stats.totalSeconds;
    state.counters["degradedSubproblems"] =
        static_cast<double>(r.stats.degradedSubproblems);
    state.counters["failedSubproblems"] =
        static_cast<double>(r.stats.failedSubproblems);
  }
}

void faultIsolationCase(benchmark::State& state, int routers) {
  const GeneratedNetwork net = generateDatacenter(dcPreset(routers, 29));
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 4, 311, 24);
  const PolicySet all = concat(update);

  for (auto _ : state) {
    AedOptions options;
    options.faultInjection.kind = FaultInjection::Kind::kThrow;
    options.faultInjection.subproblem = 0;
    const AedResult r = synthesize(net.tree, all, {}, options);
    if (!r.success) return state.SkipWithError(r.error.c_str());
    std::size_t usable = 0;
    for (const SubproblemReport& report : r.subproblems) {
      if (report.outcome == SubOutcome::kOk ||
          report.outcome == SubOutcome::kDegraded) {
        ++usable;
      }
    }
    state.counters["subproblems"] = static_cast<double>(r.subproblems.size());
    state.counters["survivorPct"] =
        r.subproblems.empty()
            ? 0.0
            : 100.0 * static_cast<double>(usable) /
                  static_cast<double>(r.subproblems.size());
    state.counters["toolSeconds"] = r.stats.totalSeconds;
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> sizes = {4, 8};
  if (aedbench::fullScale()) sizes = {4, 8, 12, 16};
  for (int routers : sizes) {
    const std::string base = "Resilience/dc" + std::to_string(routers);
    benchmark::RegisterBenchmark(
        (base + "/noBudget").c_str(),
        [routers](benchmark::State& state) { overheadCase(state, routers, 0); })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        (base + "/budget60s").c_str(),
        [routers](benchmark::State& state) {
          overheadCase(state, routers, 60000);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        (base + "/oneDestinationPoisoned").c_str(),
        [routers](benchmark::State& state) {
          faultIsolationCase(state, routers);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
}
