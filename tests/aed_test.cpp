#include <gtest/gtest.h>

#include <algorithm>

#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "obs/trace.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

PolicySet figure1AllPolicies() {
  return {aed::testing::figure1P1(), aed::testing::figure1P2(),
          aed::testing::figure1P3()};
}

TEST(Aed, SolvesFigure1WithMinimalPatch) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  // The canonical fix is a single class-specific permit rule on B's packet
  // filter (§2: "P3 can be satisfied by updating the packet filter on B").
  const DiffStats stats = diffNetworks(tree, result.updated);
  EXPECT_EQ(stats.devicesChanged, 1);
  EXPECT_EQ(stats.linesChanged(), 1);
  EXPECT_EQ(stats.changedRouters, (std::set<std::string>{"B"}));
}

TEST(Aed, SequentialModeMatchesCorrectness) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  AedOptions options;
  options.perDestination = false;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  EXPECT_EQ(result.stats.subproblems, 1u);
}

TEST(Aed, UnsatisfiablePolicySetFails) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::reachability(cls("3.0.0.0/16", "2.0.0.0/16")),
      Policy::blocking(cls("3.0.0.0/16", "2.0.0.0/16"))};
  const AedResult result = synthesize(tree, policies);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("unsatisfiable"), std::string::npos);
}

TEST(Aed, EmptyPolicySetIsNoop) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const AedResult result = synthesize(tree, {});
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.patch.empty());
  EXPECT_EQ(diffNetworks(tree, result.updated).linesChanged(), 0);
}

TEST(Aed, NoModifyObjectiveSteersChanges) {
  // Block 2/16 -> 4/16. Fixable at B (egress side) or C; forbid touching B
  // and AED must pick another router.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {Policy::blocking(cls("2.0.0.0/16", "4.0.0.0/16")),
                              aed::testing::figure1P1(),
                              aed::testing::figure1P2()};
  const auto objectives =
      parseObjectives("NOMODIFY //Router[name=\"B\"]");
  const AedResult result = synthesize(tree, policies, objectives);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  const DiffStats stats = diffNetworks(tree, result.updated);
  EXPECT_EQ(stats.changedRouters.count("B"), 0u) << result.patch.describe();
  EXPECT_FALSE(result.satisfiedObjectives.empty());
}

TEST(Aed, ImpossibleObjectiveIsViolatedNotFatal) {
  // P3 requires changing B (the only filter on the only path). NOMODIFY B
  // cannot be satisfied; AED must still fix the policy and report the
  // objective as violated.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const auto objectives = parseObjectives("NOMODIFY //Router[name=\"B\"]");
  const AedResult result = synthesize(tree, policies, objectives);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  ASSERT_EQ(result.violatedObjectives.size(), 1u);
  EXPECT_NE(result.violatedObjectives[0].find("NOMODIFY"),
            std::string::npos);
}

TEST(Aed, PreserveTemplatesKeepsClonesInSync) {
  DcParams params;
  params.racks = 4;
  params.aggs = 2;
  params.blockedPairFraction = 0.5;
  params.seed = 5;
  const GeneratedNetwork net = generateDatacenter(params);
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 2, 42);
  PolicySet all = update.base;
  all.insert(all.end(), update.added.begin(), update.added.end());

  const AedResult result =
      synthesize(net.tree, all, objectivesPreserveTemplates());
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(all).empty());
  const TemplateGroups groups = computeTemplateGroups(net.tree);
  EXPECT_EQ(countTemplateViolations(groups, result.updated), 0)
      << result.patch.describe();
}

TEST(Aed, MinDevicesTouchesFewerThanTemplates) {
  DcParams params;
  params.racks = 4;
  params.aggs = 2;
  params.blockedPairFraction = 0.5;
  params.seed = 5;
  const GeneratedNetwork net = generateDatacenter(params);
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 2, 42);
  PolicySet all = update.base;
  all.insert(all.end(), update.added.begin(), update.added.end());

  const AedResult minDev = synthesize(net.tree, all, objectivesMinDevices());
  const AedResult templ =
      synthesize(net.tree, all, objectivesPreserveTemplates());
  ASSERT_TRUE(minDev.success) << minDev.error;
  ASSERT_TRUE(templ.success) << templ.error;
  EXPECT_LE(diffNetworks(net.tree, minDev.updated).devicesChanged,
            diffNetworks(net.tree, templ.updated).devicesChanged);
}

TEST(Aed, AvoidStaticRoutesObjective) {
  // Force a "no route" situation: rack0's adjacency to its only agg is
  // fixable via static routes or via BGP adjacency addition; the eliminate
  // objective must push AED towards BGP.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const AedResult result =
      synthesize(tree, policies, objectivesAvoidStaticRoutes());
  ASSERT_TRUE(result.success) << result.error;
  for (const Edit& edit : result.patch.edits()) {
    if (edit.op == Edit::Op::kAddNode &&
        edit.kind == NodeKind::kOrigination) {
      EXPECT_EQ(edit.attrs.count("nexthop"), 0u) << edit.describe();
    }
  }
}

TEST(Aed, WaypointPolicyEndToEnd) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::waypoint(cls("4.0.0.0/16", "2.0.0.0/16"), {"A"})};
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.checkPolicy(policies[0]));
}

TEST(Aed, PathPreferencePolicyEndToEnd) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {Policy::pathPreference(
      cls("2.0.0.0/16", "4.0.0.0/16"), {"B", "C"}, {"B", "A", "C"})};
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.checkPolicy(policies[0]));
}

TEST(Aed, IsolationPolicyEndToEnd) {
  // 2/16->1/16 currently shares C-A with 4/16->1/16; demand isolation.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::isolation(cls("2.0.0.0/16", "1.0.0.0/16"),
                        cls("4.0.0.0/16", "1.0.0.0/16")),
      Policy::reachability(cls("2.0.0.0/16", "1.0.0.0/16")),
      Policy::reachability(cls("4.0.0.0/16", "1.0.0.0/16"))};
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(MergePatches, DeduplicatesSharedScaffolding) {
  Patch a, b;
  const Edit filter{Edit::Op::kAddNode, "Router[name=C]",
                    NodeKind::kPacketFilter, {{"name", "pf_new"}}};
  a.add(filter);
  b.add(filter);
  const Patch merged = mergePatches({a, b});
  EXPECT_EQ(merged.size(), 1u);
}

TEST(MergePatches, RenumbersCollidingSeqs) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a, b;
  a.add(Edit{Edit::Op::kAddNode, target, NodeKind::kPacketFilterRule,
             {{"seq", "9"}, {"action", "permit"},
              {"srcPrefix", "1.0.0.0/16"}, {"dstPrefix", "2.0.0.0/16"}}});
  b.add(Edit{Edit::Op::kAddNode, target, NodeKind::kPacketFilterRule,
             {{"seq", "9"}, {"action", "permit"},
              {"srcPrefix", "3.0.0.0/16"}, {"dstPrefix", "4.0.0.0/16"}}});
  const Patch merged = mergePatches({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.edits()[0].attrs.at("seq"), "9");
  EXPECT_EQ(merged.edits()[1].attrs.at("seq"), "8");
}

TEST(Aed, StatsPopulated) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const AedResult result = synthesize(tree, figure1AllPolicies());
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.stats.totalSeconds, 0.0);
  EXPECT_GT(result.stats.maxSubproblemSeconds, 0.0);
  EXPECT_GE(result.stats.subproblems, 2u);  // two destination groups
  EXPECT_GT(result.stats.deltaCount, 0u);
}

// stats.simulate sums the engines of every validation round. On
// bench_simulator's repair scenario each round builds a fresh engine on a
// tree with the same destinations and sources, so two forced rejections
// (three validations) give exactly three times the hits and misses of a run
// that validates once.
TEST(Aed, SimulateStatsSumEveryRound) {
  DcParams params;
  params.racks = 5;
  params.aggs = 2;
  params.spines = 1;
  params.blockedPairFraction = 0.0;
  params.seed = 29;
  GeneratedNetwork net = generateDatacenter(params);
  const PolicySet policies = makeWithdrawnSubnetUpdate(net, "rack0");
  makeWithdrawnSubnetUpdate(net, "rack1");

  AedOptions options;
  options.maxRepairIterations = 5;
  const AedResult once = synthesize(net.tree, policies, {}, options);
  ASSERT_TRUE(once.success) << once.error;
  ASSERT_EQ(once.stats.repairRounds, 0u);

  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = 2;
  const AedResult thrice = synthesize(net.tree, policies, {}, options);
  ASSERT_TRUE(thrice.success) << thrice.error;
  ASSERT_EQ(thrice.stats.repairRounds, 2u);

  const SimCacheStats& one = once.stats.simulate;
  const SimCacheStats& three = thrice.stats.simulate;
  EXPECT_GT(one.routeMisses, 0u);
  EXPECT_EQ(three.routeHits, 3 * one.routeHits);
  EXPECT_EQ(three.routeMisses, 3 * one.routeMisses);
}

// Every second of a call sits in a top-level phase span: on a fixed dc8
// update, the direct children of aed.synthesize cover at least 95% of it,
// and the solver teardown is one of them. (Kept out of obs_test, whose
// replaced global operator new trips ASan inside the uninstrumented libz3
// on this scenario.)
TEST(Aed, TopLevelSpansCoverTheWholeCall) {
  DcParams params;
  params.racks = 5;
  params.aggs = 2;
  params.spines = 1;
  params.blockedPairFraction = 0.5;
  params.seed = 5;
  const GeneratedNetwork net = generateDatacenter(params);
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 4, 42);
  ASSERT_EQ(update.added.size(), 4u);
  PolicySet policies = update.base;
  policies.insert(policies.end(), update.added.begin(), update.added.end());

  AedOptions options;
  options.workers = 2;
  Tracer::clear();
  Tracer::enable();
  const AedResult result = synthesize(net.tree, policies, {}, options);
  Tracer::disable();
  ASSERT_TRUE(result.success) << result.error;

  const std::vector<TraceEvent> events = Tracer::collect();
  Tracer::clear();
  const auto root = std::find_if(
      events.begin(), events.end(), [](const TraceEvent& event) {
        return std::string("aed.synthesize") == event.name;
      });
  ASSERT_NE(root, events.end());
  std::int64_t coveredUs = 0;
  bool teardown = false;
  for (const TraceEvent& event : events) {
    if (event.parent != root->id) continue;
    coveredUs += event.durUs;
    teardown = teardown || std::string("aed.teardown") == event.name;
  }
  EXPECT_TRUE(teardown);
  EXPECT_GE(static_cast<double>(coveredUs),
            0.95 * static_cast<double>(root->durUs));
}

}  // namespace
}  // namespace aed
