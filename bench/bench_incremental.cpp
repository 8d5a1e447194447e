// Incremental re-solve engine vs fresh-per-round rebuilding.
//
// The repair loop is AED's counterexample-guided core: when a candidate
// patch fails simulator validation, the offending delta combination is
// blocked and the affected subproblems re-solved. This bench measures what
// keeping the per-destination solvers alive across rounds (sketch, Z3
// session, encoding reused; only the new blocking clauses pushed) buys over
// rebuilding every subproblem from scratch each round.
//
// A repair-heavy scenario is forced deterministically: two rack subnets'
// originations are withdrawn (each restorable several distinct ways, so
// blocking a candidate delta set leaves alternatives), and
// FaultInjection::kRejectValidation rejects the first N otherwise-passing
// verdicts, so N full blocking + re-solve rounds run for real. Both modes
// must converge to a simulator-validated patch (identical policy-compliance
// verdicts); the bench asserts that.
//
// Counters (per mode):
//   repairRounds       — forced + organic repair rounds taken
//   firstRoundSeconds  — sketch+encode+solve+extract+simulate, round 0
//   repairSeconds      — same, summed over all repair rounds
//   repairSolveSeconds — pure solver time within the repair rounds
// and for the head-to-head case:
//   repairSpeedup      — fresh repairSeconds / incremental repairSeconds
//
// Run: ./build/bench/bench_incremental
//   (JSON for CI trend tracking: --benchmark_out=BENCH_incremental.json
//    --benchmark_out_format=json)

#include "common.hpp"

namespace {

using namespace aed;
using aedbench::dcPreset;
using aedbench::requireCorrect;

constexpr int kForcedRejections = 2;

struct Scenario {
  GeneratedNetwork net;
  PolicySet policies;
};

Scenario repairHeavyScenario(int routers) {
  DcParams params = dcPreset(routers, 29);
  params.blockedPairFraction = 0.0;
  Scenario scenario{generateDatacenter(params), {}};
  // The first call infers the healthy network's full policy set; the second
  // withdrawal only mutates the configuration further (its return value is
  // the already-broken network's policies, which we don't want).
  scenario.policies = makeWithdrawnSubnetUpdate(scenario.net, "rack0");
  makeWithdrawnSubnetUpdate(scenario.net, "rack1");
  return scenario;
}

AedOptions repairHeavyOptions(bool incremental) {
  AedOptions options;
  options.incrementalResolve = incremental;
  options.maxRepairIterations = kForcedRejections + 3;
  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = kForcedRejections;
  return options;
}

void setCounters(benchmark::State& state, const AedResult& r) {
  state.counters["repairRounds"] = static_cast<double>(r.stats.repairRounds);
  state.counters["firstRoundSeconds"] = r.stats.firstRound.total();
  state.counters["repairSeconds"] = r.stats.repair.total();
  state.counters["repairSolveSeconds"] = r.stats.repair.solveSeconds;
  state.counters["repairEncodeSeconds"] = r.stats.repair.encodeSeconds;
  state.counters["warmStartSolves"] =
      static_cast<double>(r.stats.warmStartSolves);
}

void repairHeavyCase(benchmark::State& state, int routers, bool incremental) {
  const Scenario scenario = repairHeavyScenario(routers);

  for (auto _ : state) {
    const AedResult r = synthesize(scenario.net.tree, scenario.policies, {},
                                   repairHeavyOptions(incremental));
    if (!r.success) return state.SkipWithError(r.error.c_str());
    if (r.stats.repairRounds < kForcedRejections) {
      return state.SkipWithError("scenario was not repair-heavy");
    }
    requireCorrect(r.updated, scenario.policies, state);
    setCounters(state, r);
  }
}

// Head-to-head in one iteration so the ratio lands in a single JSON entry.
void speedupCase(benchmark::State& state, int routers) {
  const Scenario scenario = repairHeavyScenario(routers);

  for (auto _ : state) {
    const AedResult fresh = synthesize(scenario.net.tree, scenario.policies,
                                       {}, repairHeavyOptions(false));
    const AedResult incremental = synthesize(
        scenario.net.tree, scenario.policies, {}, repairHeavyOptions(true));
    if (!fresh.success) return state.SkipWithError(fresh.error.c_str());
    if (!incremental.success) {
      return state.SkipWithError(incremental.error.c_str());
    }
    // Identical policy-compliance verdicts: both patches must leave zero
    // violated policies in the concrete simulator.
    requireCorrect(fresh.updated, scenario.policies, state);
    requireCorrect(incremental.updated, scenario.policies, state);

    const double freshRepair = fresh.stats.repair.total();
    const double incrementalRepair = incremental.stats.repair.total();
    state.counters["freshRepairSeconds"] = freshRepair;
    state.counters["incrementalRepairSeconds"] = incrementalRepair;
    state.counters["repairSpeedup"] =
        incrementalRepair > 0.0 ? freshRepair / incrementalRepair : 0.0;
    state.counters["repairRounds"] =
        static_cast<double>(incremental.stats.repairRounds);
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> sizes = {4, 8};
  if (aedbench::fullScale()) sizes = {4, 8, 12, 16};
  for (int routers : sizes) {
    const std::string base = "Incremental/dc" + std::to_string(routers);
    benchmark::RegisterBenchmark(
        (base + "/freshPerRound").c_str(),
        [routers](benchmark::State& state) {
          repairHeavyCase(state, routers, false);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        (base + "/incremental").c_str(),
        [routers](benchmark::State& state) {
          repairHeavyCase(state, routers, true);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        (base + "/speedup").c_str(),
        [routers](benchmark::State& state) { speedupCase(state, routers); })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
}
