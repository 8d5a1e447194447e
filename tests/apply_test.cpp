// Tests for the deployment subsystem (src/apply) and the transactional
// patch apply underneath it: inverse-edit journal rollback, staged rollout
// planning with simulation-checked reordering, the one-shot fallback, the
// chaos-hardened commit loop, and a property test over generated networks.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/journal.hpp"
#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

// ------------------------------------------------------- transactional apply

Edit addRule(const std::string& router, const std::string& filter, int seq,
             const std::string& src, const std::string& dst) {
  return Edit{Edit::Op::kAddNode,
              "Router[name=" + router + "]/PacketFilter[name=" + filter + "]",
              NodeKind::kPacketFilterRule,
              {{"seq", std::to_string(seq)},
               {"action", "permit"},
               {"srcPrefix", src},
               {"dstPrefix", dst}}};
}

Edit addFilter(const std::string& router, const std::string& filter) {
  return Edit{Edit::Op::kAddNode, "Router[name=" + router + "]",
              NodeKind::kPacketFilter, {{"name", filter}}};
}

TEST(TransactionalApply, FailureAtEditKLeavesTreeUnchanged) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const std::string before = printNetworkConfig(tree);

  // Two valid edits, then one that cannot resolve its target path. The
  // failure happens at edit 2 — after real mutations — and the tree must
  // still come back bit-identical.
  Patch patch;
  patch.add(addRule("B", "pf_b", 5, "203.0.113.0/24", "0.0.0.0/0"));
  patch.add(Edit{Edit::Op::kRemoveNode,
                 "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
                 "RouteFilter[name=rf_a]/RouteFilterRule[seq=10]",
                 NodeKind::kNetwork,
                 {}});
  patch.add(Edit{Edit::Op::kRemoveNode, "Router[name=NOPE]", NodeKind::kNetwork,
                 {}});

  try {
    patch.apply(tree);
    FAIL() << "apply should have thrown";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kApplyFailed);
  }
  EXPECT_EQ(printNetworkConfig(tree), before);
}

TEST(TransactionalApply, FailureAtEveryPositionRollsBack) {
  // Strong exception safety must hold wherever the failing edit sits: at
  // position 0 (nothing applied yet), in the middle, and at the end.
  const Patch good = [] {
    Patch p;
    p.add(addRule("B", "pf_b", 5, "203.0.113.0/24", "0.0.0.0/0"));
    p.add(Edit{Edit::Op::kSetAttr,
               "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
               "RouteFilter[name=rf_a]/RouteFilterRule[seq=20]",
               NodeKind::kNetwork,
               {{"lp", "120"}}});
    p.add(addFilter("C", "pf_new"));
    p.add(addRule("C", "pf_new", 10, "198.51.100.0/24", "0.0.0.0/0"));
    return p;
  }();
  {
    // The good patch itself must apply cleanly — otherwise the variants
    // below would throw for the wrong reason.
    ConfigTree tree = parseNetworkConfig(figure1ConfigText());
    good.apply(tree);
  }
  for (std::size_t k = 0; k <= good.size(); ++k) {
    ConfigTree tree = parseNetworkConfig(figure1ConfigText());
    const std::string before = printNetworkConfig(tree);
    Patch patch;
    for (std::size_t i = 0; i < good.size(); ++i) {
      if (i == k) {
        patch.add(Edit{Edit::Op::kSetAttr, "Router[name=NOPE]",
                       NodeKind::kNetwork, {{"x", "1"}}});
      }
      patch.add(good.edits()[i]);
    }
    if (k == good.size()) {
      patch.add(Edit{Edit::Op::kSetAttr, "Router[name=NOPE]",
                     NodeKind::kNetwork, {{"x", "1"}}});
    }
    EXPECT_THROW(patch.apply(tree), AedError) << "k=" << k;
    EXPECT_EQ(printNetworkConfig(tree), before) << "k=" << k;
  }
}

TEST(TransactionalApply, RollbackRestoresRemovedSubtreeAndAttrs) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const std::string before = printNetworkConfig(tree);

  Patch patch;
  // Remove a whole filter subtree (two rules under it), overwrite an
  // existing attr, introduce a brand-new attr, and add a node.
  patch.add(Edit{Edit::Op::kRemoveNode, "Router[name=B]/PacketFilter[name=pf_b]",
                 NodeKind::kNetwork, {}});
  patch.add(Edit{Edit::Op::kSetAttr,
                 "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
                 "RouteFilter[name=rf_a]/RouteFilterRule[seq=20]",
                 NodeKind::kNetwork,
                 {{"lp", "120"}, {"med", "7"}}});  // lp exists, med is new
  patch.add(addFilter("C", "pf_new"));
  patch.add(addRule("C", "pf_new", 10, "198.51.100.0/24", "0.0.0.0/0"));

  ApplyJournal journal;
  patch.applyJournaled(tree, journal);
  EXPECT_EQ(tree.byPath("Router[name=B]/PacketFilter[name=pf_b]"), nullptr);
  journal.rollback();
  EXPECT_EQ(printNetworkConfig(tree), before);

  // The committed path keeps the changes.
  ApplyJournal journal2;
  patch.applyJournaled(tree, journal2);
  journal2.commit();
  EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(patch.applied(
                parseNetworkConfig(figure1ConfigText()))));
}

TEST(TransactionalApply, DestructorRollsBackUncommittedJournal) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const std::string before = printNetworkConfig(tree);
  Patch patch;
  patch.add(addRule("B", "pf_b", 5, "203.0.113.0/24", "0.0.0.0/0"));
  {
    ApplyJournal journal;
    patch.applyJournaled(tree, journal);
    EXPECT_NE(printNetworkConfig(tree), before);
    // No commit: scope exit must roll back.
  }
  EXPECT_EQ(printNetworkConfig(tree), before);
}

TEST(TransactionalApply, HookFaultRollsBack) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const std::string before = printNetworkConfig(tree);
  Patch patch;
  patch.add(addRule("B", "pf_b", 5, "203.0.113.0/24", "0.0.0.0/0"));
  patch.add(addRule("B", "pf_b", 6, "203.0.114.0/24", "0.0.0.0/0"));
  ApplyJournal journal;
  EXPECT_THROW(
      patch.applyJournaled(tree, journal,
                           [](std::size_t index, const Edit&) {
                             if (index == 1) {
                               throw AedError(ErrorCode::kApplyFailed,
                                              "injected");
                             }
                           }),
      AedError);
  EXPECT_EQ(printNetworkConfig(tree), before);
}

// ------------------------------------------------------------ staged planner

// Policies that hold on figure 1 both before and after benign edits.
PolicySet figure1GuardPolicies() {
  return {aed::testing::figure1P1(), aed::testing::figure1P2(),
          Policy::reachability(cls("2.0.0.0/16", "1.0.0.0/16"))};
}

TEST(StagedPlan, MultiRouterPatchSplitsAndCommits) {
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  // Benign rules for traffic no policy mentions, on two routers.
  Patch merged;
  merged.add(addRule("B", "pf_b", 5, "203.0.113.0/24", "203.0.114.0/24"));
  merged.add(addFilter("C", "pf_c"));
  merged.add(addRule("C", "pf_c", 10, "198.51.100.0/24", "0.0.0.0/0"));

  const PolicySet policies = figure1GuardPolicies();
  DeploymentPlan plan = planStagedRollout(base, merged, policies);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_FALSE(plan.oneShot);
  EXPECT_EQ(plan.guard.size(), policies.size());
  for (const DeploymentStage& stage : plan.stages) {
    EXPECT_TRUE(stage.validated) << stage.label;
    EXPECT_EQ(stage.routers.size(), 1u);
  }

  ConfigTree tree = base.clone();
  EXPECT_TRUE(executeDeployment(tree, plan));
  EXPECT_TRUE(plan.executed);
  EXPECT_FALSE(plan.aborted);
  EXPECT_EQ(plan.committedStages, 2u);
  for (const DeploymentStage& stage : plan.stages) {
    EXPECT_EQ(stage.status, StageStatus::kCommitted);
  }
  EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(merged.applied(base)));
  EXPECT_NE(plan.describe().find("committed"), std::string::npos);
}

TEST(StagedPlan, SplitsOneRouterPerDestination) {
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  // Two rules on the same router, attributable to different destinations.
  Patch merged;
  merged.add(addRule("B", "pf_b", 5, "0.0.0.0/0", "203.0.113.0/24"));
  merged.add(addRule("B", "pf_b", 6, "0.0.0.0/0", "198.51.100.0/24"));

  DeploymentPlan plan =
      planStagedRollout(base, merged, figure1GuardPolicies());
  ASSERT_EQ(plan.stages.size(), 2u);
  for (const DeploymentStage& stage : plan.stages) {
    EXPECT_NE(stage.label.find("dst"), std::string::npos) << stage.label;
    EXPECT_EQ(stage.patch.size(), 1u);
  }
}

TEST(StagedPlan, DependentEditsStayInOneStage) {
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  // The rules target a filter the first edit creates: even though they are
  // attributable to two destinations, splitting them apart would strand the
  // second destination's rule without its parent filter.
  Patch merged;
  merged.add(Edit{Edit::Op::kAddNode, "Router[name=C]", NodeKind::kPacketFilter,
                  {{"name", "pf_new"}}});
  merged.add(Edit{Edit::Op::kAddNode,
                  "Router[name=C]/PacketFilter[name=pf_new]",
                  NodeKind::kPacketFilterRule,
                  {{"seq", "10"},
                   {"action", "permit"},
                   {"srcPrefix", "0.0.0.0/0"},
                   {"dstPrefix", "203.0.113.0/24"}}});
  merged.add(Edit{Edit::Op::kAddNode,
                  "Router[name=C]/PacketFilter[name=pf_new]",
                  NodeKind::kPacketFilterRule,
                  {{"seq", "20"},
                   {"action", "permit"},
                   {"srcPrefix", "0.0.0.0/0"},
                   {"dstPrefix", "198.51.100.0/24"}}});
  DeploymentPlan plan =
      planStagedRollout(base, merged, figure1GuardPolicies());
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_EQ(plan.stages[0].patch.size(), 3u);
  ConfigTree tree = base.clone();
  EXPECT_TRUE(executeDeployment(tree, plan));
}

TEST(StagedPlan, ReordersToAvoidTransientRegression) {
  // Move the blocking of 3/16 -> 1/16 from B's ingress filter to D's egress
  // filter. Applying B's removal first would leave a transient state with
  // no blocking at all — the planner must commit D's addition first even
  // though router B sorts first.
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  Patch merged;
  merged.add(Edit{Edit::Op::kRemoveNode,
                  "Router[name=B]/PacketFilter[name=pf_b]/"
                  "PacketFilterRule[seq=10]",
                  NodeKind::kNetwork,
                  {}});
  merged.add(Edit{Edit::Op::kAddNode, "Router[name=D]", NodeKind::kPacketFilter,
                  {{"name", "pf_d"}}});
  merged.add(Edit{Edit::Op::kAddNode,
                  "Router[name=D]/PacketFilter[name=pf_d]",
                  NodeKind::kPacketFilterRule,
                  {{"seq", "10"},
                   {"action", "deny"},
                   {"srcPrefix", "3.0.0.0/16"},
                   {"dstPrefix", "1.0.0.0/16"}}});
  merged.add(Edit{Edit::Op::kAddNode,
                  "Router[name=D]/PacketFilter[name=pf_d]",
                  NodeKind::kPacketFilterRule,
                  {{"seq", "20"},
                   {"action", "permit"},
                   {"srcPrefix", "0.0.0.0/0"},
                   {"dstPrefix", "0.0.0.0/0"}}});
  merged.add(Edit{Edit::Op::kSetAttr, "Router[name=D]/Interface[name=toB]",
                  NodeKind::kNetwork,
                  {{"pfilterOut", "pf_d"}}});

  const PolicySet policies = figure1GuardPolicies();
  {
    // Sanity: the final state still blocks 3/16 -> 1/16.
    const ConfigTree final_ = merged.applied(base);
    Simulator sim(final_);
    EXPECT_TRUE(sim.violations(policies).empty());
  }
  DeploymentPlan plan = planStagedRollout(base, merged, policies);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_FALSE(plan.oneShot);
  EXPECT_GE(plan.reorderings, 1u);
  // D's addition must come first, B's removal second.
  EXPECT_EQ(plan.stages[0].routers, (std::set<std::string>{"D"}));
  EXPECT_EQ(plan.stages[1].routers, (std::set<std::string>{"B"}));

  ConfigTree tree = base.clone();
  EXPECT_TRUE(executeDeployment(tree, plan));
  EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(merged.applied(base)));
}

// Five-router diamond where two traffic classes swap disjoint paths:
// no per-router order is transient-safe under the isolation policy.
std::string pathSwapConfigText() {
  return R"(hostname A
interface toS1
 ip address 10.1.1.2/30
interface toS2
 ip address 10.2.1.2/30
interface toD
 ip address 10.3.1.1/30
router bgp 65003
 neighbor 10.1.1.1 remote-router S1
 neighbor 10.2.1.1 remote-router S2
 neighbor 10.3.1.2 remote-router D
!
hostname B
interface toS1
 ip address 10.1.2.2/30
interface toS2
 ip address 10.2.2.2/30
interface toD
 ip address 10.3.2.1/30
router bgp 65004
 neighbor 10.1.2.1 remote-router S1
 neighbor 10.2.2.1 remote-router S2
 neighbor 10.3.2.2 remote-router D
!
hostname D
interface hosts
 ip address 9.0.0.1/16
interface toA
 ip address 10.3.1.2/30
interface toB
 ip address 10.3.2.2/30
router bgp 65005
 neighbor 10.3.1.1 remote-router A
 neighbor 10.3.2.1 remote-router B
 network 9.0.0.0/16
!
hostname S1
interface hosts
 ip address 1.0.0.1/16
interface toA
 ip address 10.1.1.1/30
interface toB
 ip address 10.1.2.1/30
router bgp 65001
 neighbor 10.1.1.2 remote-router A filter-in rfa
 neighbor 10.1.2.2 remote-router B filter-in rfb
 network 1.0.0.0/16
 route-filter rfa seq 10 permit any set local-preference 200
 route-filter rfb seq 10 permit any set local-preference 100
!
hostname S2
interface hosts
 ip address 2.0.0.1/16
interface toA
 ip address 10.2.1.1/30
interface toB
 ip address 10.2.2.1/30
router bgp 65002
 neighbor 10.2.1.2 remote-router A filter-in rfa
 neighbor 10.2.2.2 remote-router B filter-in rfb
 network 2.0.0.0/16
 route-filter rfa seq 10 permit any set local-preference 100
 route-filter rfb seq 10 permit any set local-preference 200
)";
}

TEST(StagedPlan, FallsBackToOneShotWhenNoOrderIsSafe) {
  const ConfigTree base = parseNetworkConfig(pathSwapConfigText());
  // Before: S1 prefers A (lp 200 > 100), S2 prefers B. The update swaps
  // both preferences. Applying either router's edit alone lands both
  // classes on the same middle router — a shared directed link into D —
  // so only the atomic one-shot satisfies the isolation guard.
  Patch merged;
  merged.add(Edit{Edit::Op::kSetAttr,
                  "Router[name=S1]/RoutingProcess[type=bgp,name=65001]/"
                  "RouteFilter[name=rfb]/RouteFilterRule[seq=10]",
                  NodeKind::kNetwork,
                  {{"lp", "250"}}});
  merged.add(Edit{Edit::Op::kSetAttr,
                  "Router[name=S2]/RoutingProcess[type=bgp,name=65002]/"
                  "RouteFilter[name=rfa]/RouteFilterRule[seq=10]",
                  NodeKind::kNetwork,
                  {{"lp", "250"}}});

  const TrafficClass t1 = cls("1.0.0.0/16", "9.0.0.0/16");
  const TrafficClass t2 = cls("2.0.0.0/16", "9.0.0.0/16");
  const PolicySet policies = {Policy::isolation(t1, t2),
                              Policy::reachability(t1),
                              Policy::reachability(t2)};
  {
    Simulator simBefore(base);
    EXPECT_TRUE(simBefore.violations(policies).empty());
    const ConfigTree final_ = merged.applied(base);
    Simulator simAfter(final_);
    EXPECT_TRUE(simAfter.violations(policies).empty());
  }

  DeploymentPlan plan = planStagedRollout(base, merged, policies);
  EXPECT_TRUE(plan.oneShot);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_TRUE(plan.stages.back().validated);
  EXPECT_NE(plan.stages.back().label.find("one-shot"), std::string::npos);
  EXPECT_EQ(plan.stages.back().routers,
            (std::set<std::string>{"S1", "S2"}));

  ConfigTree tree = base.clone();
  EXPECT_TRUE(executeDeployment(tree, plan));
  EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(merged.applied(base)));
}

TEST(StagedPlan, EmptyPatchYieldsEmptyPlan) {
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  DeploymentPlan plan =
      planStagedRollout(base, Patch{}, figure1GuardPolicies());
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.guard.size(), figure1GuardPolicies().size());
}

TEST(StagedPlan, GuardExcludesPoliciesBrokenBeforeOrAfter) {
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  // P3 is violated on the base tree: it must not be guarded (an update that
  // keeps it broken mid-rollout is not a regression).
  PolicySet policies = figure1GuardPolicies();
  policies.push_back(aed::testing::figure1P3());
  const PolicySet guard =
      regressionGuard(base, base.clone(), policies);
  EXPECT_EQ(guard.size(), policies.size() - 1);
  for (const Policy& policy : guard) {
    EXPECT_NE(policy.str(), aed::testing::figure1P3().str());
  }
}

// --------------------------------------------------------- chaos commit loop

TEST(StagedDeploy, CommitFaultRollsBackToLastConsistentState) {
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  Patch merged;
  merged.add(addRule("B", "pf_b", 5, "203.0.113.0/24", "203.0.114.0/24"));
  merged.add(addFilter("C", "pf_c"));
  merged.add(addRule("C", "pf_c", 10, "198.51.100.0/24", "0.0.0.0/0"));
  DeploymentPlan plan =
      planStagedRollout(base, merged, figure1GuardPolicies());
  ASSERT_EQ(plan.stages.size(), 2u);

  FaultInjection fault;
  fault.kind = FaultInjection::Kind::kStageCommitFailure;
  fault.applyStage = 1;
  fault.applyEdit = 0;

  ConfigTree tree = base.clone();
  EXPECT_FALSE(executeDeployment(tree, plan, {}, fault));
  EXPECT_TRUE(plan.aborted);
  EXPECT_EQ(plan.code, ErrorCode::kApplyFailed);
  EXPECT_EQ(plan.committedStages, 1u);
  EXPECT_EQ(plan.stages[0].status, StageStatus::kCommitted);
  EXPECT_EQ(plan.stages[1].status, StageStatus::kRolledBack);

  // Bit-identical to the last committed consistent state: base + stage 0.
  ConfigTree expected = base.clone();
  plan.stages[0].patch.apply(expected);
  EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(expected));
}

TEST(StagedDeploy, ValidationTimeoutRollsBackFirstStage) {
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  Patch merged;
  merged.add(addRule("B", "pf_b", 5, "203.0.113.0/24", "203.0.114.0/24"));
  merged.add(addFilter("C", "pf_c"));
  merged.add(addRule("C", "pf_c", 10, "198.51.100.0/24", "0.0.0.0/0"));
  DeploymentPlan plan =
      planStagedRollout(base, merged, figure1GuardPolicies());
  ASSERT_EQ(plan.stages.size(), 2u);

  FaultInjection fault;
  fault.kind = FaultInjection::Kind::kStageValidationTimeout;
  fault.applyStage = 0;

  ConfigTree tree = base.clone();
  EXPECT_FALSE(executeDeployment(tree, plan, {}, fault));
  EXPECT_TRUE(plan.aborted);
  EXPECT_EQ(plan.code, ErrorCode::kTimeout);
  EXPECT_EQ(plan.committedStages, 0u);
  EXPECT_EQ(plan.stages[0].status, StageStatus::kRolledBack);
  EXPECT_EQ(plan.stages[1].status, StageStatus::kSkipped);
  // Nothing committed: bit-identical to the base tree.
  EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(base));
}

TEST(StagedDeploy, RuntimeValidationCatchesGuardRegression) {
  // Hand the executor a hostile plan (remove B's deny with no replacement,
  // staged alone): the runtime re-validation must roll it back even though
  // the stage claims nothing.
  const ConfigTree base = parseNetworkConfig(figure1ConfigText());
  DeploymentPlan plan;
  plan.guard = {aed::testing::figure1P1()};
  DeploymentStage stage;
  stage.index = 0;
  stage.label = "hostile";
  stage.patch.add(Edit{Edit::Op::kRemoveNode,
                       "Router[name=B]/PacketFilter[name=pf_b]/"
                       "PacketFilterRule[seq=10]",
                       NodeKind::kNetwork,
                       {}});
  plan.stages.push_back(std::move(stage));

  ConfigTree tree = base.clone();
  EXPECT_FALSE(executeDeployment(tree, plan));
  EXPECT_TRUE(plan.aborted);
  EXPECT_EQ(plan.code, ErrorCode::kDeployAborted);
  EXPECT_EQ(plan.stages[0].status, StageStatus::kRolledBack);
  EXPECT_NE(plan.stages[0].detail.find("guard regression"),
            std::string::npos);
  EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(base));
}

// ------------------------------------------------- synthesize() integration

TEST(StagedDeploy, SynthesizeWithStagedDeploymentReportsPlan) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  AedOptions options;
  options.stagedDeployment = true;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_FALSE(result.deployment.empty());
  EXPECT_TRUE(result.deployment.executed);
  EXPECT_FALSE(result.deployment.aborted);
  EXPECT_EQ(result.deployment.committedStages,
            result.deployment.stages.size());
  EXPECT_FALSE(result.degraded);
}

TEST(StagedDeploy, SynthesizeStageFaultDegradesResult) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  AedOptions options;
  options.stagedDeployment = true;
  options.faultInjection.kind = FaultInjection::Kind::kStageCommitFailure;
  options.faultInjection.applyStage = 0;
  options.faultInjection.applyEdit = 0;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.deployment.aborted);
  EXPECT_EQ(result.deployment.code, ErrorCode::kApplyFailed);
  EXPECT_EQ(result.deployment.committedStages, 0u);
  // The synthesized patch itself is unaffected by the deployment fault.
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

// ------------------------------------------------------------- property test

// Deterministic scenario: a generated network plus a synthetic multi-router
// patch (benign rule additions and a local-preference tweak when one
// exists), exercised through plan + execute + chaos.
struct Scenario {
  std::string name;
  ConfigTree tree;
  Patch patch;
};

Scenario makeScenario(int index) {
  Scenario scenario;
  std::mt19937 rng(0x5eed0000u + static_cast<unsigned>(index));
  if (index % 2 == 0) {
    DcParams params;
    params.racks = 2 + (index / 2) % 3;
    params.aggs = 2;
    params.spines = 1 + (index / 4) % 2;
    params.seed = 100 + index;
    scenario.name = "dc-" + std::to_string(index);
    scenario.tree = std::move(generateDatacenter(params).tree);
  } else {
    ZooParams params;
    params.routers = 6 + (index / 2) % 5;
    params.seed = 200 + index;
    scenario.name = "zoo-" + std::to_string(index);
    scenario.tree = std::move(generateZoo(params).tree);
  }
  // Benign additions on a few routers: new packet filters for documentation
  // prefixes no generated policy references.
  const std::vector<Node*> routers = scenario.tree.routers();
  const std::size_t touch =
      std::min<std::size_t>(routers.size(), 2 + rng() % 3);
  for (std::size_t i = 0; i < touch; ++i) {
    const Node* router = routers[(rng() % routers.size())];
    const std::string filterName =
        "pfx_" + std::to_string(i);
    if (router->findChild(NodeKind::kPacketFilter, filterName) != nullptr) {
      continue;
    }
    scenario.patch.add(Edit{Edit::Op::kAddNode, router->path(),
                            NodeKind::kPacketFilter,
                            {{"name", filterName}}});
    scenario.patch.add(
        Edit{Edit::Op::kAddNode,
             router->path() + "/PacketFilter[name=" + filterName + "]",
             NodeKind::kPacketFilterRule,
             {{"seq", "10"},
              {"action", "permit"},
              {"srcPrefix", "203.0.113.0/24"},
              {"dstPrefix",
               "198.51." + std::to_string(100 + i) + ".0/24"}}});
  }
  return scenario;
}

TEST(StagedDeployProperty, GeneratedScenariosAreSafeAndAtomic) {
  constexpr int kScenarios = 20;
  int faultsInjected = 0;
  for (int index = 0; index < kScenarios; ++index) {
    const Scenario scenario = makeScenario(index);
    ASSERT_FALSE(scenario.patch.empty()) << scenario.name;
    const ConfigTree& base = scenario.tree;

    // Policies: the reachability set the base network actually implements.
    const Simulator inferSim(base);
    const PolicySet policies = inferSim.inferReachabilityPolicies();

    DeploymentPlan plan = planStagedRollout(base, scenario.patch, policies);
    ASSERT_FALSE(plan.empty()) << scenario.name;

    // Property 1: every intermediate configuration (cumulative stage
    // prefix) has zero hard-policy regressions — checked independently of
    // the planner's own verdicts.
    ConfigTree cursor = base.clone();
    for (const DeploymentStage& stage : plan.stages) {
      EXPECT_TRUE(stage.validated) << scenario.name << " " << stage.label;
      stage.patch.apply(cursor);
      SimulationEngine check(cursor);
      EXPECT_TRUE(check.violations(plan.guard).empty())
          << scenario.name << " after " << stage.label;
    }

    // Property 2: a clean execution reaches exactly the merged result.
    {
      DeploymentPlan cleanPlan = plan;
      ConfigTree tree = base.clone();
      ASSERT_TRUE(executeDeployment(tree, cleanPlan)) << scenario.name;
      EXPECT_EQ(printNetworkConfig(tree),
                printNetworkConfig(scenario.patch.applied(base)))
          << scenario.name;
    }

    // Property 3: an injected mid-apply fault leaves the tree bit-identical
    // to the last committed consistent state.
    {
      DeploymentPlan chaosPlan = plan;
      FaultInjection fault;
      fault.kind = index % 4 == 3
                       ? FaultInjection::Kind::kStageValidationTimeout
                       : FaultInjection::Kind::kStageCommitFailure;
      fault.applyStage = static_cast<std::size_t>(index) % plan.stages.size();
      fault.applyEdit = static_cast<std::size_t>(index) %
                        plan.stages[fault.applyStage].patch.size();
      ++faultsInjected;

      ConfigTree tree = base.clone();
      EXPECT_FALSE(executeDeployment(tree, chaosPlan, {}, fault))
          << scenario.name;
      EXPECT_TRUE(chaosPlan.aborted) << scenario.name;
      EXPECT_EQ(chaosPlan.committedStages, fault.applyStage) << scenario.name;

      ConfigTree expected = base.clone();
      for (std::size_t i = 0; i < fault.applyStage; ++i) {
        chaosPlan.stages[i].patch.apply(expected);
      }
      EXPECT_EQ(printNetworkConfig(tree), printNetworkConfig(expected))
          << scenario.name << " fault at stage " << fault.applyStage;
      for (std::size_t i = fault.applyStage + 1; i < chaosPlan.stages.size();
           ++i) {
        EXPECT_EQ(chaosPlan.stages[i].status, StageStatus::kSkipped)
            << scenario.name;
      }
    }
  }
  EXPECT_EQ(faultsInjected, kScenarios);
}

}  // namespace
}  // namespace aed
