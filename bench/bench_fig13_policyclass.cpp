// Figure 13: "Impact of policy class".
//
// The paper adds 5% new policies of one class — reachability, waypointing,
// or path-preference — to each datacenter network and measures update time.
// Shape: path-preference is the slowest at larger sizes (its encoding needs
// an extra link-failure environment plus path-pinning constraints), but all
// classes remain tractable.
//
// Run: ./build/bench/bench_fig13_policyclass

#include <algorithm>

#include "common.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::requireCorrect;

void classCase(benchmark::State& state, int routers,
               const std::string& policyClass) {
  DcParams params = dcPreset(routers, 9);
  // Waypoint/path-preference additions are generated from current paths;
  // they need reachable pairs, not blocked ones.
  if (policyClass != "reachability") params.blockedPairFraction = 0.0;
  const GeneratedNetwork net = generateDatacenter(params);
  Simulator sim(net.tree);
  const PolicySet base = sim.inferReachabilityPolicies();
  const int addCount =
      std::max(1, static_cast<int>(base.size()) / 20);  // ~5% new policies

  PolicySet all = base;
  PolicySet added;
  if (policyClass == "reachability") {
    const PolicyUpdate update =
        makeReachabilityUpdate(net.tree, addCount, 113);
    all = concat(update);
    added = update.added;
  } else if (policyClass == "waypoint") {
    added = makeWaypointPolicies(net.tree, addCount, 113);
    all.insert(all.end(), added.begin(), added.end());
  } else {
    added = makePathPreferencePolicies(net.tree, addCount, 113);
    all.insert(all.end(), added.begin(), added.end());
  }
  if (added.empty()) return state.SkipWithError("no policies generated");

  for (auto _ : state) {
    AedResult r = synthesize(net.tree, all, objectivesMinDevices());
    if (!r.success) return state.SkipWithError(r.error.c_str());
    state.counters["toolSeconds"] = r.stats.totalSeconds;
    state.counters["criticalPathSeconds"] = r.stats.maxSubproblemSeconds;
    state.counters["addedPolicies"] = static_cast<double>(added.size());
    requireCorrect(r.updated, all, state);
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> sizes = {4, 8, 16};
  if (aedbench::fullScale()) sizes = {4, 8, 12, 16, 20, 24};
  for (int routers : sizes) {
    for (const std::string& cls :
         {std::string("reachability"), std::string("waypoint"),
          std::string("path-preference")}) {
      const std::string name =
          "Fig13/dc" + std::to_string(routers) + "/" + cls;
      benchmark::RegisterBenchmark(name.c_str(),
                                   [routers, cls](benchmark::State& state) {
                                     classCase(state, routers, cls);
                                   })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
}
