// Deployment subsystem benchmarks: transactional apply, staged rollout
// planning, and the chaos-hardened commit loop.
//
// Three questions, per network size:
//   1. What does the inverse-edit journal cost per edit (apply + commit),
//      and what does a full rollback cost (apply + rollback)? Both must be
//      cheap relative to a single simulation check.
//   2. How expensive is planning a staged rollout — the greedy ordering
//      simulates one intermediate state per candidate, each on an engine
//      built for it, so compiling and converging per candidate dominates.
//   3. What does executing the plan cost, clean and under an injected
//      mid-apply fault (the fault path measures stage rollback, which CI's
//      sanitizer job also runs as a chaos smoke test)?
//
// Counters:
//   edits           — edits in the synthetic multi-router patch
//   stages          — stages the planner produced
//   candidates      — intermediate states simulated while planning
//   reorderings     — greedy picks that skipped an unsafe unit
//   committedStages — stages committed before the injected fault aborted
//
// Run: ./build/bench/bench_apply
//   (JSON for CI trend tracking: --benchmark_out=BENCH_apply.json
//    --benchmark_out_format=json)

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "common.hpp"
#include "conftree/journal.hpp"
#include "conftree/printer.hpp"
#include "simulate/simulator.hpp"

namespace {

using namespace aed;

struct Scenario {
  GeneratedNetwork net;
  PolicySet policies;
  Patch patch;
};

// A benign multi-router patch: a fresh documentation-prefix packet filter
// (filter + one rule) on every rack router, so every stage is independent
// and transient-safe — planning cost is isolated from fallback handling.
Scenario applyScenario(int routers) {
  Scenario scenario{generateDatacenter(aedbench::dcPreset(routers, 37)),
                    {},
                    {}};
  const Simulator sim(scenario.net.tree);
  scenario.policies = sim.inferReachabilityPolicies();
  int index = 0;
  for (const auto& [name, role] : scenario.net.roles) {
    if (role != "rack") continue;
    const std::string path = "Router[name=" + name + "]";
    const std::string filter = "pfx_bench";
    scenario.patch.add(Edit{Edit::Op::kAddNode, path, NodeKind::kPacketFilter,
                            {{"name", filter}}});
    scenario.patch.add(
        Edit{Edit::Op::kAddNode, path + "/PacketFilter[name=" + filter + "]",
             NodeKind::kPacketFilterRule,
             {{"seq", "10"},
              {"action", "permit"},
              {"srcPrefix", "203.0.113.0/24"},
              {"dstPrefix", "198.51." + std::to_string(100 + index) + ".0/24"}}});
    ++index;
  }
  return scenario;
}

void transactionalApplyCase(benchmark::State& state, int routers,
                            bool rollback) {
  const Scenario scenario = applyScenario(routers);
  ConfigTree tree = scenario.net.tree.clone();
  const std::string before = printNetworkConfig(tree);
  for (auto _ : state) {
    ApplyJournal journal;
    scenario.patch.applyJournaled(tree, journal);
    if (rollback) {
      journal.rollback();
    } else {
      journal.commit();
      state.PauseTiming();
      tree = scenario.net.tree.clone();  // reset for the next iteration
      state.ResumeTiming();
    }
  }
  if (rollback && printNetworkConfig(tree) != before) {
    state.SkipWithError("rollback did not restore the tree");
  }
  state.counters["edits"] = static_cast<double>(scenario.patch.size());
}

void planCase(benchmark::State& state, int routers) {
  const Scenario scenario = applyScenario(routers);
  DeploymentPlan last;
  for (auto _ : state) {
    last = planStagedRollout(scenario.net.tree, scenario.patch,
                             scenario.policies);
  }
  if (last.empty() || last.oneShot) {
    state.SkipWithError("expected a multi-stage plan");
  }
  state.counters["stages"] = static_cast<double>(last.stages.size());
  state.counters["candidates"] = static_cast<double>(last.candidatesTried);
  state.counters["reorderings"] = static_cast<double>(last.reorderings);
  state.counters["edits"] = static_cast<double>(scenario.patch.size());
}

void executeCase(benchmark::State& state, int routers, bool injectFault) {
  const Scenario scenario = applyScenario(routers);
  const DeploymentPlan plan = planStagedRollout(
      scenario.net.tree, scenario.patch, scenario.policies);
  FaultInjection fault;
  if (injectFault) {
    fault.kind = FaultInjection::Kind::kStageCommitFailure;
    fault.applyStage = plan.stages.size() / 2;
    fault.applyEdit = 0;
  }
  DeploymentPlan executed;
  for (auto _ : state) {
    state.PauseTiming();
    ConfigTree tree = scenario.net.tree.clone();
    executed = plan;
    state.ResumeTiming();
    const bool ok = executeDeployment(tree, executed, {}, fault);
    if (ok == injectFault) {
      state.SkipWithError("unexpected deployment outcome");
      break;
    }
    if (injectFault) {
      // The chaos contract: bit-identical to the last committed state.
      state.PauseTiming();
      ConfigTree expected = scenario.net.tree.clone();
      for (std::size_t i = 0; i < fault.applyStage; ++i) {
        executed.stages[i].patch.apply(expected);
      }
      if (printNetworkConfig(tree) != printNetworkConfig(expected)) {
        state.SkipWithError("fault did not roll back to a consistent state");
      }
      state.ResumeTiming();
    }
  }
  state.counters["stages"] = static_cast<double>(executed.stages.size());
  state.counters["committedStages"] =
      static_cast<double>(executed.committedStages);
}

}  // namespace

void aedbench::registerCases() {
  std::vector<int> sizes = {8, 16};
  if (aedbench::fullScale()) sizes = {8, 16, 24};
  for (int routers : sizes) {
    const std::string base = "Apply/dc" + std::to_string(routers);
    benchmark::RegisterBenchmark(
        (base + "/journalCommit").c_str(),
        [routers](benchmark::State& state) {
          transactionalApplyCase(state, routers, false);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (base + "/journalRollback").c_str(),
        [routers](benchmark::State& state) {
          transactionalApplyCase(state, routers, true);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (base + "/plan").c_str(),
        [routers](benchmark::State& state) { planCase(state, routers); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
    benchmark::RegisterBenchmark(
        (base + "/execute").c_str(),
        [routers](benchmark::State& state) {
          executeCase(state, routers, false);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
    benchmark::RegisterBenchmark(
        (base + "/executeChaos").c_str(),
        [routers](benchmark::State& state) {
          executeCase(state, routers, true);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
}
