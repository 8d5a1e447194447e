// Ablations of this implementation's own design choices (DESIGN.md §5),
// beyond the paper's three §8 optimizations:
//
//  * default per-delta minimality — without it the solver returns arbitrary
//    policy-compliant assignments (this is most of what separates AED from
//    the clean-slate baseline);
//  * simulator validation + repair loop — the safety net for model/solver
//    divergence; measures its overhead on the happy path;
//  * destination-scoped decomposition — per-destination solving without the
//    scoping restriction would be unsound (see DESIGN.md), so the ablation
//    contrasts scoped-parallel vs monolithic *churn* (optimality cost of
//    scoping).
//
// Run: ./build/bench/bench_ablation

#include "common.hpp"
#include "conftree/diff.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::concat;
using aedbench::dcPreset;
using aedbench::requireCorrect;

struct Workload {
  GeneratedNetwork net;
  PolicySet all;
};

Workload makeWorkload(int routers) {
  Workload w;
  w.net = generateDatacenter(dcPreset(routers, 21));
  const PolicyUpdate update = makeReachabilityUpdate(w.net.tree, 4, 321, 24);
  w.all = concat(update);
  return w;
}

void minimalityAblation(benchmark::State& state, int routers, bool on) {
  const Workload w = makeWorkload(routers);
  AedOptions options;
  options.defaultMinimality = on;
  for (auto _ : state) {
    const AedResult r = synthesize(w.net.tree, w.all, {}, options);
    if (!r.success) return state.SkipWithError(r.error.c_str());
    requireCorrect(r.updated, w.all, state);
    const DiffStats diff = diffNetworks(w.net.tree, r.updated);
    state.counters["lines"] = diff.linesChanged();
    state.counters["devices"] = diff.devicesChanged;
    state.counters["toolSeconds"] = r.stats.totalSeconds;
  }
}

void validationAblation(benchmark::State& state, int routers, bool on) {
  const Workload w = makeWorkload(routers);
  AedOptions options;
  options.validateWithSimulator = on;
  for (auto _ : state) {
    const AedResult r = synthesize(w.net.tree, w.all, {}, options);
    if (!r.success) return state.SkipWithError(r.error.c_str());
    requireCorrect(r.updated, w.all, state);
    state.counters["toolSeconds"] = r.stats.totalSeconds;
    state.counters["repairRounds"] =
        static_cast<double>(r.stats.repairRounds);
  }
}

void scopingAblation(benchmark::State& state, int routers, bool scoped) {
  const Workload w = makeWorkload(routers);
  AedOptions options;
  options.perDestination = scoped;  // unscoped == monolithic global optimum
  for (auto _ : state) {
    const AedResult r =
        synthesize(w.net.tree, w.all, objectivesMinDevices(), options);
    if (!r.success) return state.SkipWithError(r.error.c_str());
    requireCorrect(r.updated, w.all, state);
    const DiffStats diff = diffNetworks(w.net.tree, r.updated);
    state.counters["devices"] = diff.devicesChanged;
    state.counters["lines"] = diff.linesChanged();
    state.counters["toolSeconds"] = r.stats.totalSeconds;
  }
}

}  // namespace

void aedbench::registerCases() {
  const int routers = aedbench::fullScale() ? 12 : 8;
  for (const bool on : {true, false}) {
    benchmark::RegisterBenchmark(
        (std::string("Ablation/minimality/") + (on ? "on" : "off")).c_str(),
        [routers, on](benchmark::State& s) {
          minimalityAblation(s, routers, on);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        (std::string("Ablation/validation/") + (on ? "on" : "off")).c_str(),
        [routers, on](benchmark::State& s) {
          validationAblation(s, routers, on);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        (std::string("Ablation/decomposition/") +
         (on ? "scoped-parallel" : "monolithic"))
            .c_str(),
        [routers, on](benchmark::State& s) {
          scopingAblation(s, routers, on);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
}
