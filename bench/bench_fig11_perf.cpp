// Figure 11: "Performance on reachability policy".
//
//  11a: update-computation time vs network size, AED vs CPR, on datacenter
//       networks. Paper shape: comparable for <=10 routers; CPR's graph
//       model pulls ahead as networks grow, but AED stays in the same
//       order of magnitude despite far greater objective coverage.
//  11b: time vs topology-zoo network size, AED vs NetComplete-like
//       clean-slate synthesis. Paper shape: AED wins by 10-100x; the gap
//       widens with size (the paper stopped NetComplete runs after 30+
//       hours at moderate scale, which is why the clean-slate cases here
//       are capped).
//
// Counters report both wall-clock seconds and, for AED, the critical-path
// seconds: the slowest single subproblem, which is the wall clock a machine
// with at least one core per subproblem would see. The reference machine
// (EXPERIMENTS.md) has 4 cores, so once a call has more solving groups than
// cores its wall clock exceeds the critical path.
//
// Run: ./build/bench/bench_fig11_perf

#include "baselines/cpr.hpp"
#include "baselines/netcomplete.hpp"
#include "common.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::requireCorrect;

void dcCase(benchmark::State& state, int routers, const std::string& tool) {
  const GeneratedNetwork net = generateDatacenter(dcPreset(routers, 7));
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 4, 107);
  const PolicySet all = concat(update);
  for (auto _ : state) {
    if (tool == "cpr") {
      CprResult r = cprRepair(net.tree, all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      state.counters["toolSeconds"] = r.seconds;
      requireCorrect(r.updated, all, state);
    } else {
      AedResult r = synthesize(net.tree, all, objectivesMinDevices());
      if (!r.success) return state.SkipWithError(r.error.c_str());
      state.counters["toolSeconds"] = r.stats.totalSeconds;
      state.counters["criticalPathSeconds"] = r.stats.maxSubproblemSeconds;
      state.counters["subproblems"] =
          static_cast<double>(r.stats.subproblems);
      requireCorrect(r.updated, all, state);
    }
  }
}

void zooCase(benchmark::State& state, int routers, const std::string& tool) {
  ZooParams params;
  params.routers = routers;
  params.seed = 5;
  const GeneratedNetwork net = generateZoo(params);
  // The paper's setup: 8 base + 8 added reachability policies.
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 8, 205, 8);
  const PolicySet all = concat(update);
  for (auto _ : state) {
    if (tool == "netcomplete") {
      AedResult r = netCompleteSynthesize(net.tree, all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      state.counters["toolSeconds"] = r.stats.totalSeconds;
      requireCorrect(r.updated, all, state);
    } else {
      AedResult r = synthesize(net.tree, all, objectivesMinDevices());
      if (!r.success) return state.SkipWithError(r.error.c_str());
      state.counters["toolSeconds"] = r.stats.totalSeconds;
      state.counters["criticalPathSeconds"] = r.stats.maxSubproblemSeconds;
      requireCorrect(r.updated, all, state);
    }
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> dcSizes = {4, 8, 16};
  std::vector<int> zooSizes = {16, 24, 32};
  int netCompleteCap = 24;
  if (aedbench::fullScale()) {
    dcSizes = {4, 8, 12, 16, 20, 24};
    zooSizes = {30, 50, 70, 100, 130, 160};
    netCompleteCap = 50;
  }
  for (int routers : dcSizes) {
    for (const std::string& tool : {std::string("aed"), std::string("cpr")}) {
      const std::string name =
          "Fig11a/dc" + std::to_string(routers) + "/" + tool;
      benchmark::RegisterBenchmark(name.c_str(),
                                   [routers, tool](benchmark::State& state) {
                                     dcCase(state, routers, tool);
                                   })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
  for (int routers : zooSizes) {
    for (const std::string& tool :
         {std::string("aed"), std::string("netcomplete")}) {
      if (tool == "netcomplete" && routers > netCompleteCap) continue;
      const std::string name =
          "Fig11b/zoo" + std::to_string(routers) + "/" + tool;
      benchmark::RegisterBenchmark(name.c_str(),
                                   [routers, tool](benchmark::State& state) {
                                     zooCase(state, routers, tool);
                                   })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
}
