// Memoized simulation engine vs the serial from-scratch Simulator.
//
// Validation is the non-solver half of every repair round: the serial oracle
// re-runs route convergence for every (policy, source) forwarding walk, so a
// policy-heavy validation pays the convergence cost hundreds of times for a
// handful of distinct destinations. The SimulationEngine converges once per
// (destination, environment) and shards the checks across a thread pool.
// Verdicts are bit-identical (asserted here and in tests/engine_test.cpp);
// this bench measures what that buys.
//
// Cases:
//   Simulator/dcN/violations — one policy-heavy violations() sweep:
//     serialSeconds   — fresh Simulator, convergence per forwarding walk
//     coldSeconds     — SimulationEngine, cold cache (compile + converge)
//     warmSeconds     — same engine, second sweep (pure cache hits)
//     coldSpeedup / warmSpeedup — serial / engine
//     serialSeconds and coldSeconds are the fastest of kSweepRepeats sweeps,
//     each cold one on a freshly built engine: a dc8 sweep takes about a
//     millisecond, so one timing of it measures scheduling noise and
//     first-use costs as much as the algorithm. The cold speedup is asserted
//     >= 3x: the algorithmic win is roughly (policies x sources) /
//     destinations, far above 3 on these shapes.
//   Simulator/dcN/repair — full synthesize() with kRejectValidation forcing
//     repair rounds: memoFirstSimulateSeconds / memoSimulateSeconds (round-0
//     and repair-round validation, one fresh engine per round) plus the
//     summed cache hit rate of those engines (hitRatePct).
//
// Run: ./build/bench/bench_simulator
//   (JSON for CI trend tracking: --benchmark_out=BENCH_simulator.json
//    --benchmark_out_format=json)

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>

#include "common.hpp"
#include "simulate/engine.hpp"

namespace {

using namespace aed;
using aedbench::dcPreset;
using aedbench::requireCorrect;

constexpr int kForcedRejections = 2;
constexpr int kSweepRepeats = 5;

double secondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<std::string> policyStrings(const PolicySet& policies) {
  std::vector<std::string> out;
  out.reserve(policies.size());
  for (const Policy& policy : policies) out.push_back(policy.str());
  return out;
}

// Policy-heavy validation workload: the full inferred reachability matrix
// plus waypoint and path-preference policies — many policies, few distinct
// destinations.
PolicySet validationPolicies(const ConfigTree& tree) {
  const Simulator oracle(tree);
  PolicySet policies = oracle.inferReachabilityPolicies();
  const PolicySet waypoints = makeWaypointPolicies(tree, 8, 5);
  policies.insert(policies.end(), waypoints.begin(), waypoints.end());
  const PolicySet prefs = makePathPreferencePolicies(tree, 4, 5);
  policies.insert(policies.end(), prefs.begin(), prefs.end());
  return policies;
}

void violationsCase(benchmark::State& state, int routers) {
  DcParams params = dcPreset(routers, 17);
  const GeneratedNetwork net = generateDatacenter(params);
  const PolicySet policies = validationPolicies(net.tree);

  for (auto _ : state) {
    PolicySet serialVerdict, coldVerdict, warmVerdict;
    const Simulator oracle(net.tree);
    std::optional<SimulationEngine> engine;
    double serialSeconds = 0.0;
    double coldSeconds = 0.0;
    for (int i = 0; i < kSweepRepeats; ++i) {
      const double serial =
          secondsOf([&] { serialVerdict = oracle.violations(policies); });
      engine.emplace(net.tree);  // fresh, so the timed sweep is cold
      const double cold =
          secondsOf([&] { coldVerdict = engine->violations(policies); });
      serialSeconds = i == 0 ? serial : std::min(serialSeconds, serial);
      coldSeconds = i == 0 ? cold : std::min(coldSeconds, cold);
    }
    const double warmSeconds =
        secondsOf([&] { warmVerdict = engine->violations(policies); });

    if (policyStrings(serialVerdict) != policyStrings(coldVerdict) ||
        policyStrings(serialVerdict) != policyStrings(warmVerdict)) {
      return state.SkipWithError("engine verdicts diverge from the oracle");
    }
    const double coldSpeedup =
        coldSeconds > 0.0 ? serialSeconds / coldSeconds : 0.0;
    if (coldSpeedup < 3.0) {
      return state.SkipWithError("memoized engine below 3x over serial");
    }
    state.counters["policies"] = static_cast<double>(policies.size());
    state.counters["serialSeconds"] = serialSeconds;
    state.counters["coldSeconds"] = coldSeconds;
    state.counters["warmSeconds"] = warmSeconds;
    state.counters["coldSpeedup"] = coldSpeedup;
    state.counters["warmSpeedup"] =
        warmSeconds > 0.0 ? serialSeconds / warmSeconds : 0.0;
    state.counters["hitRatePct"] = engine->cacheStats().hitRate() * 100.0;
  }
}

// Repair-heavy synthesis scenario (same shape as bench_incremental): two
// withdrawn rack subnets plus kRejectValidation forcing full repair rounds.
struct Scenario {
  GeneratedNetwork net;
  PolicySet policies;
};

Scenario repairHeavyScenario(int routers) {
  DcParams params = dcPreset(routers, 29);
  params.blockedPairFraction = 0.0;
  Scenario scenario{generateDatacenter(params), {}};
  scenario.policies = makeWithdrawnSubnetUpdate(scenario.net, "rack0");
  makeWithdrawnSubnetUpdate(scenario.net, "rack1");
  return scenario;
}

void repairCase(benchmark::State& state, int routers) {
  const Scenario scenario = repairHeavyScenario(routers);
  AedOptions options;
  options.maxRepairIterations = kForcedRejections + 3;
  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = kForcedRejections;

  for (auto _ : state) {
    const AedResult memo =
        synthesize(scenario.net.tree, scenario.policies, {}, options);
    if (!memo.success) return state.SkipWithError(memo.error.c_str());
    if (memo.stats.repairRounds < kForcedRejections) {
      return state.SkipWithError("scenario was not repair-heavy");
    }
    requireCorrect(memo.updated, scenario.policies, state);

    state.counters["repairRounds"] =
        static_cast<double>(memo.stats.repairRounds);
    state.counters["memoFirstSimulateSeconds"] =
        memo.stats.firstRound.simulateSeconds;
    state.counters["memoSimulateSeconds"] = memo.stats.repair.simulateSeconds;
    state.counters["hitRatePct"] = memo.stats.simulate.hitRate() * 100.0;
  }
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> sizes = {8, 16};
  if (aedbench::fullScale()) sizes = {8, 16, 24};
  for (int routers : sizes) {
    const std::string base = "Simulator/dc" + std::to_string(routers);
    benchmark::RegisterBenchmark(
        (base + "/violations").c_str(),
        [routers](benchmark::State& state) { violationsCase(state, routers); })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
  std::vector<int> repairSizes = {8};
  if (aedbench::fullScale()) repairSizes = {8, 12};
  for (int routers : repairSizes) {
    const std::string base = "Simulator/dc" + std::to_string(routers);
    benchmark::RegisterBenchmark(
        (base + "/repair").c_str(),
        [routers](benchmark::State& state) { repairCase(state, routers); })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
}
