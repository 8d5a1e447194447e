#include <gtest/gtest.h>

#include "baselines/cpr.hpp"
#include "baselines/netcomplete.hpp"
#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "core/subsolver.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

TEST(Cpr, RepairsFigure1P3) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  const CprResult result = cprRepair(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  EXPECT_EQ(result.linesChanged, 1);  // single permit rule
}

TEST(Cpr, RepairsBlockingPolicy) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::blocking(cls("2.0.0.0/16", "4.0.0.0/16")),
      Policy::reachability(cls("2.0.0.0/16", "1.0.0.0/16"))};
  const CprResult result = cprRepair(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(Cpr, NoRouteFixedWithStatic) {
  // D's adjacency to B removed: 3/16 loses all routes; CPR should add a
  // static route (its cheapest repair).
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  Node* adj = tree.byPath(
      "Router[name=D]/RoutingProcess[type=bgp,name=65004]/Adjacency[peer=B]");
  ASSERT_NE(adj, nullptr);
  adj->parent()->removeChild(*adj);
  const PolicySet policies = {
      Policy::reachability(cls("3.0.0.0/16", "4.0.0.0/16"))};
  const CprResult result = cprRepair(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(Cpr, UnsupportedPolicyClassErrors) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {Policy::pathPreference(
      cls("2.0.0.0/16", "4.0.0.0/16"), {"B", "A", "C"}, {"B", "C"})};
  const CprResult result = cprRepair(tree, policies);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("unsupported"), std::string::npos);
}

TEST(Cpr, MinimizesLinesButIgnoresTemplates) {
  DcParams params;
  params.racks = 4;
  params.aggs = 2;
  params.blockedPairFraction = 0.5;
  params.seed = 5;
  const GeneratedNetwork net = generateDatacenter(params);
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 2, 42);
  PolicySet all = update.base;
  all.insert(all.end(), update.added.begin(), update.added.end());

  const CprResult result = cprRepair(net.tree, all);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(all).empty());
  // One line per un-blocked pair; and the rack template is broken (CPR has
  // no notion of clones).
  const DiffStats stats = diffNetworks(net.tree, result.updated);
  EXPECT_EQ(stats.linesChanged(), 2);
  const TemplateGroups groups = computeTemplateGroups(net.tree);
  EXPECT_GT(countTemplateViolations(groups, result.updated), 0);
}

TEST(NetComplete, SolvesButChurns) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  const AedResult result = netCompleteSynthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  // Clean-slate synthesis has no anchoring: it touches far more of the
  // network than the one-line incremental fix.
  const DiffStats stats = diffNetworks(tree, result.updated);
  EXPECT_GT(stats.linesChanged(), 1);
}

TEST(NetComplete, OptionsDisableAedOptimizations) {
  const AedOptions options = netCompleteOptions(3);
  EXPECT_FALSE(options.perDestination);
  EXPECT_FALSE(options.sketch.pruneIrrelevant);
  EXPECT_FALSE(options.encoder.booleanLp);
  EXPECT_FALSE(options.defaultMinimality);
  EXPECT_NE(options.randomPhaseSeed, 0u);
  // No softs: its one check carries no assumption and runs Z3's tactic.
  EXPECT_EQ(SubproblemSolver::solverKind(options, {}),
            SmtSession::SolverKind::kCombined);
}

}  // namespace
}  // namespace aed
