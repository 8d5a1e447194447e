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
// One more case gates the fixed cost every solving group pays once per
// solver it builds (the fresh mode builds one per group per round):
//   Incremental/sessionLifecycle — the fastest of 5 lifecycles of the
//   session a group with softs builds: construct, one hard constraint, one
//   unit soft, check(), free (fastestMs). It fails past 3 ms. The kind comes
//   from SubproblemSolver::solverKind(), so building Z3's default solver
//   there again (about 5x the kernel's lifecycle) fails it.
//
// Run: ./build/bench/bench_incremental
//   (JSON for CI trend tracking: --benchmark_out=BENCH_incremental.json
//    --benchmark_out_format=json)

#include <algorithm>
#include <limits>

#include "common.hpp"
#include "core/subsolver.hpp"
#include "smt/session.hpp"

namespace {

using namespace aed;
using aedbench::dcPreset;
using aedbench::requireCorrect;

constexpr int kForcedRejections = 2;
constexpr int kLifecycleRuns = 5;
constexpr double kLifecycleLimitSeconds = 0.003;

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

void sessionLifecycleCase(benchmark::State& state) {
  // Default options have the minimality softs: every AED group's shape.
  const SmtSession::SolverKind kind =
      SubproblemSolver::solverKind(AedOptions{}, {});

  const auto lifecycle = [kind] {
    SmtSession session(kind);
    const z3::expr x = session.boolVar("x");
    session.addHard(x || session.boolVar("y"));
    session.addSoft(!x, 1, "unit");
    return session.check().sat();
  };
  for (auto _ : state) {
    // One untimed lifecycle first: a process's first Z3 context also pays
    // for faulting in the allocator's pages, which later groups reuse.
    if (!lifecycle()) {
      return state.SkipWithError("the lifecycle's check was not sat");
    }
    double fastest = std::numeric_limits<double>::infinity();
    for (int run = 0; run < kLifecycleRuns; ++run) {
      const auto start = Deadline::Clock::now();
      benchmark::DoNotOptimize(lifecycle());
      fastest = std::min(fastest, secondsSince(start));
    }
    state.counters["fastestMs"] = fastest * 1e3;
    if (fastest > kLifecycleLimitSeconds) {
      return state.SkipWithError(
          ("session lifecycle took " + std::to_string(fastest * 1e3) +
           " ms, over the 3 ms budget")
              .c_str());
    }
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
  benchmark::RegisterBenchmark("Incremental/sessionLifecycle",
                               sessionLifecycleCase)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}
