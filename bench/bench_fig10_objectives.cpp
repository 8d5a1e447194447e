// Figure 10: "Other management objectives".
//
//  10a (min-pfs): when adding blocking policies, how many packet filters
//      does each tool end up adding? The paper: AED (with the min-pfs
//      objective) never adds more than 2 filters per network; CPR adds up
//      to 3x as many.
//  10b (preserve-templates): percentage of configuration templates violated
//      by each tool's update. The paper: AED 0%, CPR worst, NetComplete up
//      to 25%.
//
// Run: ./build/bench/bench_fig10_objectives

#include "baselines/cpr.hpp"
#include "baselines/netcomplete.hpp"
#include "common.hpp"
#include "util/rng.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::requireCorrect;

// ---- 10a: min-pfs ----------------------------------------------------------
// Workload: a zoo network with NO filters yet; the update adds blocking
// policies, so every tool must introduce packet filtering somewhere.

struct BlockingWorkload {
  GeneratedNetwork net;
  PolicySet all;
};

BlockingWorkload blockingWorkload(int routers, int blockCount,
                                  std::uint64_t seed) {
  BlockingWorkload w;
  ZooParams params;
  params.routers = routers;
  params.blockedPairFraction = 0.0;  // start with no filters at all
  params.seed = seed;
  w.net = generateZoo(params);

  // Turn `blockCount` currently-reachable pairs into blocking policies and
  // keep a sample of reachability policies as regression guards.
  Simulator sim(w.net.tree);
  PolicySet inferred = sim.inferReachabilityPolicies();
  Rng rng(seed + 1);
  for (std::size_t i = inferred.size(); i > 1; --i) {
    std::swap(inferred[i - 1], inferred[rng.index(i)]);
  }
  int blocks = 0;
  int keeps = 0;
  for (const Policy& policy : inferred) {
    if (policy.kind != PolicyKind::kReachability) continue;
    if (blocks < blockCount) {
      w.all.push_back(Policy::blocking(policy.cls));
      ++blocks;
    } else if (keeps < 24) {
      w.all.push_back(policy);
      ++keeps;
    }
  }
  return w;
}

void minPfs(benchmark::State& state, int routers, const std::string& tool) {
  const BlockingWorkload w = blockingWorkload(routers, 4, 11);
  for (auto _ : state) {
    ConfigTree updated;
    if (tool == "cpr") {
      CprResult r = cprRepair(w.net.tree, w.all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    } else {
      AedResult r =
          synthesize(w.net.tree, w.all, objectivesMinPacketFilters());
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    }
    requireCorrect(updated, w.all, state);
    state.counters["pfAdded"] = packetFiltersAdded(w.net.tree, updated);
    state.counters["pfRulesAdded"] =
        packetFilterRulesAdded(w.net.tree, updated);
  }
}

// ---- 10b: preserve-templates ----------------------------------------------

void preserveTemplates(benchmark::State& state, int routers,
                       const std::string& tool) {
  const GeneratedNetwork net = generateDatacenter(dcPreset(routers, 5));
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 4, 105);
  const PolicySet all = concat(update);
  const TemplateGroups groups = computeTemplateGroups(net.tree);
  for (auto _ : state) {
    ConfigTree updated;
    if (tool == "cpr") {
      CprResult r = cprRepair(net.tree, all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    } else if (tool == "netcomplete") {
      AedResult r = netCompleteSynthesize(net.tree, all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    } else {
      AedResult r = synthesize(net.tree, all, objectivesPreserveTemplates());
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    }
    requireCorrect(updated, all, state);
    state.counters["templViolationPct"] =
        templateViolationPct(groups, updated);
    state.counters["templates"] = static_cast<double>(groups.groups.size());
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> pfsSizes = {12, 16};
  std::vector<int> templSizes = {8, 16};
  if (aedbench::fullScale()) {
    pfsSizes = {16, 24, 32};
    templSizes = {8, 16, 24};
  }
  for (int routers : pfsSizes) {
    for (const std::string& tool : {std::string("aed"), std::string("cpr")}) {
      const std::string name =
          "Fig10a_minpfs/zoo" + std::to_string(routers) + "/" + tool;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [routers, tool](benchmark::State& state) {
            minPfs(state, routers, tool);
          })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
  for (int routers : templSizes) {
    for (const std::string& tool :
         {std::string("aed"), std::string("cpr"), std::string("netcomplete")}) {
      const std::string name =
          "Fig10b_templates/dc" + std::to_string(routers) + "/" + tool;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [routers, tool](benchmark::State& state) {
            preserveTemplates(state, routers, tool);
          })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
}
