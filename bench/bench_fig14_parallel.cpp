// Figure 14: "Impact of parallel solvers" (§8 optimization 2).
//
//  14a: speedup of solving one MaxSMT problem per destination (in parallel)
//       over one monolithic problem. Paper: 10-300x under min-devices.
//  14b: the optimality cost — per-destination solving can touch extra
//       devices vs the global optimum. Paper: at most one network gained 2
//       devices.
//
// The reference machine has 4 cores (EXPERIMENTS.md, Figure 14), fewer
// than the larger networks' subproblems, so two speedups are reported:
//   speedupCriticalPath = monolithic seconds / max subproblem seconds
//       (what a machine with >= #subproblems cores would observe), and
//   speedupWork = monolithic seconds / sum of subproblem seconds
//       (the decomposition benefit alone, whatever the core count).
//
// Run: ./build/bench/bench_fig14_parallel

#include "common.hpp"
#include "conftree/diff.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::requireCorrect;

void parallelCase(benchmark::State& state, int routers) {
  const GeneratedNetwork net = generateDatacenter(dcPreset(routers, 13));
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 4, 213, 24);
  const PolicySet all = concat(update);

  for (auto _ : state) {
    AedOptions mono;
    mono.perDestination = false;
    const AedResult single =
        synthesize(net.tree, all, objectivesMinDevices(), mono);
    if (!single.success) return state.SkipWithError(single.error.c_str());

    const AedResult parallel =
        synthesize(net.tree, all, objectivesMinDevices());
    if (!parallel.success) {
      return state.SkipWithError(parallel.error.c_str());
    }
    requireCorrect(single.updated, all, state);
    requireCorrect(parallel.updated, all, state);

    const double singleSeconds = single.stats.totalSeconds;
    state.counters["monolithicSeconds"] = singleSeconds;
    state.counters["criticalPathSeconds"] =
        parallel.stats.maxSubproblemSeconds;
    state.counters["speedupCriticalPath"] =
        singleSeconds / parallel.stats.maxSubproblemSeconds;
    state.counters["speedupWork"] =
        singleSeconds / parallel.stats.sumSubproblemSeconds;
    state.counters["subproblems"] =
        static_cast<double>(parallel.stats.subproblems);

    // 14b: optimality loss in devices changed.
    const int devSingle =
        diffNetworks(net.tree, single.updated).devicesChanged;
    const int devParallel =
        diffNetworks(net.tree, parallel.updated).devicesChanged;
    state.counters["devicesMonolithic"] = devSingle;
    state.counters["devicesParallel"] = devParallel;
    state.counters["extraDevices"] = devParallel - devSingle;
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> sizes = {4, 8, 12};
  if (aedbench::fullScale()) sizes = {4, 8, 12, 16, 20};
  for (int routers : sizes) {
    const std::string name = "Fig14/dc" + std::to_string(routers);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [routers](benchmark::State& state) {
                                   parallelCase(state, routers);
                                 })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
}
