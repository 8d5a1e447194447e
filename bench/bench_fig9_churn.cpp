// Figure 9: "Minimize devices and lines changed".
//
// The paper compares the percentage of devices (9a) and configuration lines
// (9b) changed by: operators' manual updates, CPR, NetComplete (all
// constructs symbolic), and AED under the min-devices / min-lines
// objectives, on datacenter networks and topology-zoo networks.
//
// Expected shape (paper): NetComplete touches almost every device; manual
// updates touch a role's worth of devices; CPR and AED touch the fewest
// (AED <= 30% of devices on average).
//
// Each benchmark case is one (network, approach) cell; counters report the
// devices/lines percentages. Run: ./build/bench/bench_fig9_churn

#include "baselines/cpr.hpp"
#include "baselines/netcomplete.hpp"
#include "common.hpp"
#include "gen/manual.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::reportChurn;
using aedbench::requireCorrect;

struct Workload {
  GeneratedNetwork net;
  PolicyUpdate update;
  PolicySet all;
};

Workload dcWorkload(int routers, std::uint64_t seed) {
  Workload w;
  w.net = generateDatacenter(dcPreset(routers, seed));
  w.update = makeReachabilityUpdate(w.net.tree, 4, seed + 100);
  w.all = concat(w.update);
  return w;
}

Workload zooWorkload(int routers, std::uint64_t seed) {
  Workload w;
  ZooParams params;
  params.routers = routers;
  params.seed = seed;
  w.net = generateZoo(params);
  w.update = makeReachabilityUpdate(w.net.tree, 8, seed + 100, 48);
  w.all = concat(w.update);
  return w;
}

Workload makeWorkload(const std::string& family, int routers,
                      std::uint64_t seed) {
  return family == "dc" ? dcWorkload(routers, seed)
                        : zooWorkload(routers, seed);
}

void runApproach(benchmark::State& state, const std::string& family,
                 int routers, const std::string& approach) {
  const Workload w = makeWorkload(family, routers, 3);
  for (auto _ : state) {
    ConfigTree updated;
    if (approach == "manual") {
      ManualUpdateResult r = manualUpdate(w.net.tree, w.all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    } else if (approach == "cpr") {
      CprResult r = cprRepair(w.net.tree, w.all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    } else if (approach == "netcomplete") {
      AedResult r = netCompleteSynthesize(w.net.tree, w.all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    } else if (approach == "aed_min_devices") {
      AedResult r = synthesize(w.net.tree, w.all, objectivesMinDevices());
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    } else {  // aed_min_lines: the default per-delta minimality IS min-lines
      AedResult r = synthesize(w.net.tree, w.all);
      if (!r.success) return state.SkipWithError(r.error.c_str());
      updated = std::move(r.updated);
    }
    requireCorrect(updated, w.all, state);
    reportChurn(state, w.net.tree, updated);
  }
}

}  // namespace

void aedbench::registerCases() {
  struct Net {
    std::string family;
    int routers;
  };
  std::vector<Net> nets = {{"dc", 8}, {"dc", 16}, {"zoo", 16}};
  if (aedbench::fullScale()) {
    nets = {{"dc", 8}, {"dc", 16}, {"dc", 24}, {"zoo", 30}, {"zoo", 50}};
  }
  const std::vector<std::string> approaches = {
      "manual", "cpr", "netcomplete", "aed_min_devices", "aed_min_lines"};
  for (const Net& net : nets) {
    for (const std::string& approach : approaches) {
      // Clean-slate synthesis on large zoo networks is where the paper
      // reports 30+ hour runtimes; keep it to sizes it can finish.
      if (approach == "netcomplete" && net.routers > 16) continue;
      const std::string name = "Fig9/" + net.family +
                               std::to_string(net.routers) + "/" + approach;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [family = net.family, routers = net.routers,
           approach](benchmark::State& state) {
            runApproach(state, family, routers, approach);
          })
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
}
