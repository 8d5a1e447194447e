// Figure 12 (and the base-policy sweep of §9.2): "Impact of no. of
// policies".
//
// The paper fixes a 70-router topology-zoo network and shows AED scaling
// linearly both in the number of *base* policies (already configured) and
// in the number of *added* policies, for base sets of 64/128/256. (For
// contrast, NetComplete needed 30+ hours for just 64 base policies.)
//
// Default scale uses a 32-router network with base sets 16/32/64; set
// AED_BENCH_FULL=1 for the paper's 70-router, 64/128/256 setup.
//
// Run: ./build/bench/bench_fig12_policyscale

#include "common.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::requireCorrect;

void scaleCase(benchmark::State& state, int routers, int base, int added) {
  ZooParams params;
  params.routers = routers;
  params.seed = 5;
  params.blockedPairFraction = 0.3;  // enough blocked pairs to flip
  const GeneratedNetwork net = generateZoo(params);
  const PolicyUpdate update =
      makeReachabilityUpdate(net.tree, added, 300 + base, base);
  const PolicySet all = concat(update);
  for (auto _ : state) {
    AedResult r = synthesize(net.tree, all, objectivesMinDevices());
    if (!r.success) return state.SkipWithError(r.error.c_str());
    state.counters["toolSeconds"] = r.stats.totalSeconds;
    state.counters["criticalPathSeconds"] = r.stats.maxSubproblemSeconds;
    state.counters["basePolicies"] = static_cast<double>(update.base.size());
    state.counters["addedPolicies"] =
        static_cast<double>(update.added.size());
    requireCorrect(r.updated, all, state);
  }
}

}  // namespace

void aedbench::registerCases() {
  const bool full = aedbench::fullScale();
  const int routers = full ? 70 : 24;
  const std::vector<int> bases = full ? std::vector<int>{64, 128, 256}
                                      : std::vector<int>{4, 8, 16};
  const std::vector<int> addeds = full ? std::vector<int>{2, 4, 8, 16}
                                       : std::vector<int>{2, 4, 8};

  // Sweep 1 (base scaling): added fixed at the largest default.
  for (int base : bases) {
    const std::string name = "Fig12/base" + std::to_string(base) + "_added" +
                             std::to_string(addeds.back());
    benchmark::RegisterBenchmark(
        name.c_str(),
        [routers, base, added = addeds.back()](benchmark::State& state) {
          scaleCase(state, routers, base, added);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
  // Sweep 2 (added scaling): for each base size, vary the added count.
  for (int base : bases) {
    for (int added : addeds) {
      if (added == addeds.back()) continue;  // covered by sweep 1
      const std::string name = "Fig12/base" + std::to_string(base) +
                               "_added" + std::to_string(added);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [routers, base, added](benchmark::State& state) {
            scaleCase(state, routers, base, added);
          })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
}
