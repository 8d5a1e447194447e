// §9.3 "Pruning configuration": the §8 optimization that statically drops
// conditionals (and their delta variables) whose prefixes cannot intersect
// the policies' traffic. Paper: 1.2-1.5x speedup on the datacenter
// networks.
//
// Run: ./build/bench/bench_opt_prune

#include "common.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::requireCorrect;

void pruneCase(benchmark::State& state, int routers, bool prune) {
  DcParams params = dcPreset(routers, 15);
  params.blockedPairFraction = 0.6;
  params.noiseRules = 24;  // irrelevant bogon rules: the pruning target
  const GeneratedNetwork net = generateDatacenter(params);
  // Only a slice of the reachability matrix is under policy: the filter
  // rules for quarantined sources outside this slice are exactly what the
  // pruning optimization drops.
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 3, 215, 10);
  const PolicySet all = concat(update);

  // The paper evaluates each optimization in isolation (§9.3); run the
  // monolithic solver so the per-destination scoping doesn't subsume the
  // pruning.
  AedOptions options;
  options.perDestination = false;
  options.sketch.pruneIrrelevant = prune;
  for (auto _ : state) {
    const AedResult r =
        synthesize(net.tree, all, objectivesMinDevices(), options);
    if (!r.success) return state.SkipWithError(r.error.c_str());
    state.counters["toolSeconds"] = r.stats.totalSeconds;
    state.counters["deltaCount"] = static_cast<double>(r.stats.deltaCount);
    requireCorrect(r.updated, all, state);
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> sizes = {8, 12};
  if (aedbench::fullScale()) sizes = {8, 12, 16};
  for (int routers : sizes) {
    for (const bool prune : {true, false}) {
      const std::string name = "OptPrune/dc" + std::to_string(routers) +
                               (prune ? "/pruned" : "/unpruned");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [routers, prune](benchmark::State& state) {
            pruneCase(state, routers, prune);
          })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
}
