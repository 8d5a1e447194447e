// SimulationEngine equivalence tests.
//
// The engine is only allowed to be fast: every verdict and route table must
// be bit-identical to the serial from-scratch Simulator, on a base network
// and on every edited tree an engine is built for. These tests cross-check
// the two against the Figure 1 network, generated datacenter and zoo
// networks, random down-link environments, and hand-rolled patches.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "conftree/parser.hpp"
#include "conftree/patch.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

std::vector<std::string> policyStrings(const PolicySet& policies) {
  std::vector<std::string> out;
  out.reserve(policies.size());
  for (const Policy& policy : policies) out.push_back(policy.str());
  return out;
}

// Asserts that the engine and a fresh serial simulator agree on route
// tables (per stub destination), forwarding from every stub's router to
// every stub destination (delivery, path and drop reason), verdicts and
// violations — the full oracle surface.
void expectMatchesOracle(const ConfigTree& tree, const SimulationEngine& engine,
                         const PolicySet& policies,
                         const std::vector<Environment>& envs) {
  const Simulator oracle(tree);
  const auto& stubs = oracle.topology().stubSubnets();
  for (const auto& [subnet, owner] : stubs) {
    for (const Environment& env : envs) {
      EXPECT_EQ(oracle.computeRoutes(subnet, env),
                engine.computeRoutes(subnet, env))
          << "route tables diverge for dst " << subnet.str();
      for (const auto& [src, srcRouter] : stubs) {
        const TrafficClass flow{src, subnet};
        const ForwardResult want = oracle.forward(flow, srcRouter, env);
        const ForwardResult got = engine.forward(flow, srcRouter, env);
        const std::string where = flow.str() + " from " + srcRouter;
        EXPECT_EQ(want.delivered, got.delivered) << where;
        EXPECT_EQ(want.path, got.path) << where;
        EXPECT_EQ(want.dropReason, got.dropReason) << where;
        EXPECT_EQ(want.drop, got.drop) << where;
        EXPECT_EQ(want.dropAt, got.dropAt) << where;
      }
    }
  }
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(engine.violations(policies)));
  for (const Policy& policy : policies) {
    EXPECT_EQ(oracle.checkPolicy(policy), engine.checkPolicy(policy))
        << policy.str();
  }
}

// Stub destinations whose converged table (all links up) differs between an
// engine on `base` and an engine on an edited copy of it.
std::vector<std::string> changedTables(const ConfigTree& base,
                                       const SimulationEngine& before,
                                       const SimulationEngine& after) {
  const Simulator oracle(base);
  std::vector<std::string> changed;
  for (const auto& [subnet, owner] : oracle.topology().stubSubnets()) {
    if (before.computeRoutes(subnet) != after.computeRoutes(subnet)) {
      changed.push_back(subnet.str());
    }
  }
  return changed;
}

class Figure1Engine : public ::testing::Test {
 protected:
  Figure1Engine()
      : tree_(parseNetworkConfig(figure1ConfigText())), engine_(tree_) {}

  PolicySet figurePolicies() const {
    return {aed::testing::figure1P1(), aed::testing::figure1P2(),
            aed::testing::figure1P3(),
            Policy::isolation(cls("2.0.0.0/16", "1.0.0.0/16"),
                              cls("3.0.0.0/16", "2.0.0.0/16")),
            Policy::pathPreference(cls("3.0.0.0/16", "2.0.0.0/16"),
                                   {"D", "B"}, {"D", "B"})};
  }

  ConfigTree tree_;
  SimulationEngine engine_;
};

TEST_F(Figure1Engine, MatchesSerialSimulator) {
  expectMatchesOracle(tree_, engine_, figurePolicies(),
                      {Environment::allUp(),
                       Environment::withDownLink("A", "B"),
                       Environment::withDownLink("B", "C")});
}

TEST_F(Figure1Engine, MemoizesRouteTables) {
  const PolicySet policies = figurePolicies();
  engine_.violations(policies);
  const SimCacheStats first = engine_.cacheStats();
  EXPECT_GT(first.routeMisses, 0u);
  engine_.violations(policies);
  const SimCacheStats second = engine_.cacheStats();
  EXPECT_EQ(second.routeMisses, first.routeMisses)
      << "repeat validation must be served entirely from cache";
  EXPECT_GT(second.routeHits, first.routeHits);
}

TEST_F(Figure1Engine, EnvironmentKeyCanonicalizesLinkOrientation) {
  const auto dst = *Ipv4Prefix::parse("1.0.0.0/16");
  engine_.computeRoutes(dst, Environment::withDownLink("A", "B"));
  const SimCacheStats before = engine_.cacheStats();
  engine_.computeRoutes(dst, Environment::withDownLink("B", "A"));
  const SimCacheStats after = engine_.cacheStats();
  EXPECT_EQ(after.routeMisses, before.routeMisses);
  EXPECT_EQ(after.routeHits, before.routeHits + 1);
}

// Edited trees. Each test below edits the Figure 1 network in one way the
// engine compiles, builds an engine on the edited tree and checks it against
// the oracle. It also pins which route tables the edit invalidates: every
// table the edit cannot reach must come out equal to the base engine's.

TEST_F(Figure1Engine, PacketFilterEditInvalidatesNothing) {
  // Unblock 3.0.0.0/16 -> 2.0.0.0/16 by prepending a permit rule to B's
  // ingress packet filter. Packet filters never shape route tables, so every
  // table must survive the edit, while the new filter takes effect.
  const Node* filter =
      tree_.router("B")->findChild(NodeKind::kPacketFilter, "pf_b");
  ASSERT_NE(filter, nullptr);
  Edit edit;
  edit.op = Edit::Op::kAddNode;
  edit.targetPath = filter->path();
  edit.kind = NodeKind::kPacketFilterRule;
  edit.attrs = {{"seq", "5"},
                {"action", "permit"},
                {"srcPrefix", "3.0.0.0/16"},
                {"dstPrefix", "2.0.0.0/16"}};
  Patch patch;
  patch.add(edit);
  const ConfigTree updated = patch.applied(tree_);
  const SimulationEngine edited(updated);

  EXPECT_EQ(changedTables(tree_, engine_, edited), std::vector<std::string>{});
  EXPECT_FALSE(engine_.checkPolicy(aed::testing::figure1P3()));
  EXPECT_TRUE(edited.checkPolicy(aed::testing::figure1P3()));
  expectMatchesOracle(updated, edited, figurePolicies(),
                      {Environment::allUp()});
}

TEST_F(Figure1Engine, OriginationEditInvalidatesOnlyOverlappingShards) {
  // Withdraw A's origination of 1.0.0.0/16: only that destination's table
  // may change.
  const Node* procA =
      tree_.router("A")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const Node* orig = procA->childrenOfKind(NodeKind::kOrigination)[0];
  ASSERT_EQ(orig->attr("prefix"), "1.0.0.0/16");
  Edit edit;
  edit.op = Edit::Op::kRemoveNode;
  edit.targetPath = orig->path();
  Patch patch;
  patch.add(edit);
  const ConfigTree updated = patch.applied(tree_);
  const SimulationEngine edited(updated);

  EXPECT_EQ(changedTables(tree_, engine_, edited),
            std::vector<std::string>{"1.0.0.0/16"});
  expectMatchesOracle(updated, edited, figurePolicies(),
                      {Environment::allUp()});
}

TEST_F(Figure1Engine, ConnectedRedistributionInvalidatesOnlyLocalPrefixes) {
  // Redistributing connected routes into A's BGP process can only affect
  // destinations inside A's own subnets; 2.0.0.0/16, 3.0.0.0/16 and
  // 4.0.0.0/16 live on other routers and must keep their tables.
  const Node* procA =
      tree_.router("A")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  Edit edit;
  edit.op = Edit::Op::kAddNode;
  edit.targetPath = procA->path();
  edit.kind = NodeKind::kRedistribution;
  edit.attrs = {{"from", "connected"}};
  Patch patch;
  patch.add(edit);
  const ConfigTree updated = patch.applied(tree_);
  const SimulationEngine edited(updated);

  for (const std::string& dst : changedTables(tree_, engine_, edited)) {
    EXPECT_EQ(dst, "1.0.0.0/16") << "table outside A's subnets changed";
  }
  expectMatchesOracle(updated, edited, figurePolicies(),
                      {Environment::allUp()});
}

TEST_F(Figure1Engine, UnattributableEditFallsBackToFullInvalidation) {
  // Dropping an adjacency can reroute any destination — not attributable to
  // a prefix. The engine on the edited tree shares no cache with the base
  // engine: it starts cold.
  const auto one = *Ipv4Prefix::parse("1.0.0.0/16");
  engine_.computeRoutes(one);

  const Node* procB =
      tree_.router("B")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const Node* adj = procB->childrenOfKind(NodeKind::kAdjacency)[0];
  Edit edit;
  edit.op = Edit::Op::kRemoveNode;
  edit.targetPath = adj->path();
  Patch patch;
  patch.add(edit);
  const ConfigTree updated = patch.applied(tree_);
  const SimulationEngine edited(updated);

  edited.computeRoutes(one);
  EXPECT_EQ(edited.cacheStats().routeHits, 0u);
  EXPECT_EQ(edited.cacheStats().routeMisses, 1u);
  EXPECT_FALSE(changedTables(tree_, engine_, edited).empty());
  expectMatchesOracle(updated, edited, figurePolicies(),
                      {Environment::allUp()});
}

TEST_F(Figure1Engine, RepairRoundRebindUsesSymmetricDifference) {
  // Round 1 patch: permit rule on B's packet filter. Round 2 patch: the
  // same edit plus a route-filter tweak. The shared edit is in both rounds'
  // trees, so between the two rounds' engines only the 4.0.0.0/16 table,
  // which the route-filter edit overlaps, may change.
  const Node* filter =
      tree_.router("B")->findChild(NodeKind::kPacketFilter, "pf_b");
  ASSERT_NE(filter, nullptr);
  Edit permitEdit;
  permitEdit.op = Edit::Op::kAddNode;
  permitEdit.targetPath = filter->path();
  permitEdit.kind = NodeKind::kPacketFilterRule;
  permitEdit.attrs = {{"seq", "5"},
                      {"action", "permit"},
                      {"srcPrefix", "3.0.0.0/16"},
                      {"dstPrefix", "2.0.0.0/16"}};
  Patch round1;
  round1.add(permitEdit);

  const Node* procB =
      tree_.router("B")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const Node* rf = procB->findChild(NodeKind::kRouteFilter, "rf_a");
  ASSERT_NE(rf, nullptr);
  Edit lpEdit;
  lpEdit.op = Edit::Op::kAddNode;
  lpEdit.targetPath = rf->path();
  lpEdit.kind = NodeKind::kRouteFilterRule;
  lpEdit.attrs = {{"seq", "15"},
                  {"action", "permit"},
                  {"prefix", "4.0.0.0/16"},
                  {"lp", "200"}};
  Patch round2;
  round2.add(permitEdit);
  round2.add(lpEdit);

  const ConfigTree updated1 = round1.applied(tree_);
  const ConfigTree updated2 = round2.applied(tree_);
  const SimulationEngine engine1(updated1);
  const SimulationEngine engine2(updated2);

  EXPECT_EQ(changedTables(tree_, engine1, engine2),
            std::vector<std::string>{"4.0.0.0/16"})
      << "only the 4.0.0.0/16 table overlaps the route-filter edit";
  expectMatchesOracle(updated2, engine2, figurePolicies(),
                      {Environment::allUp()});
}

TEST(EngineSerial, SingleWorkerMatchesOracle) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const SimulationEngine engine(tree);
  const Simulator oracle(tree);
  const PolicySet policies = oracle.inferReachabilityPolicies();
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(engine.violations(policies)));
}

// Property test: generated networks, mixed policy sets, random down-link
// environments.
TEST(EngineProperty, GeneratedNetworksMatchOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    DcParams dc;
    dc.racks = 3;
    dc.aggs = 2;
    dc.spines = 2;
    dc.seed = seed;
    GeneratedNetwork dcNet = generateDatacenter(dc);
    ZooParams zoo;
    zoo.routers = 10;
    zoo.seed = seed;
    GeneratedNetwork zooNet = generateZoo(zoo);

    for (GeneratedNetwork* net : {&dcNet, &zooNet}) {
      const Simulator oracle(net->tree);
      PolicySet policies = oracle.inferReachabilityPolicies();
      const PolicySet waypoints = makeWaypointPolicies(net->tree, 4, seed);
      policies.insert(policies.end(), waypoints.begin(), waypoints.end());
      const PolicySet prefs = makePathPreferencePolicies(net->tree, 3, seed);
      policies.insert(policies.end(), prefs.begin(), prefs.end());

      std::mt19937_64 rng(seed);
      std::vector<Environment> envs = {Environment::allUp()};
      const auto& links = oracle.topology().links();
      for (int i = 0; i < 2 && !links.empty(); ++i) {
        const Link& link = links[rng() % links.size()];
        envs.push_back(Environment::withDownLink(link.a, link.b));
      }

      const SimulationEngine engine(net->tree);
      expectMatchesOracle(net->tree, engine, policies, envs);
    }
  }
}

TEST(EngineProperty, RandomPatchesMatchOracleAfterRebind) {
  DcParams dc;
  dc.racks = 3;
  dc.aggs = 2;
  dc.spines = 2;
  dc.seed = 7;
  const GeneratedNetwork net = generateDatacenter(dc);
  const Simulator seedOracle(net.tree);
  const PolicySet policies = seedOracle.inferReachabilityPolicies();

  // Mutation 1: withdraw a rack's host-subnet origination.
  const Node* rack = net.tree.router("rack0");
  ASSERT_NE(rack, nullptr);
  const Node* proc = rack->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const auto origs = proc->childrenOfKind(NodeKind::kOrigination);
  ASSERT_FALSE(origs.empty());
  Patch withdraw;
  Edit removeOrig;
  removeOrig.op = Edit::Op::kRemoveNode;
  removeOrig.targetPath = origs[0]->path();
  withdraw.add(removeOrig);
  const ConfigTree updated1 = withdraw.applied(net.tree);
  {
    const SimulationEngine engine(updated1);
    const Simulator oracle(updated1);
    EXPECT_EQ(policyStrings(oracle.violations(policies)),
              policyStrings(engine.violations(policies)));
  }

  // Mutation 2 (relative to the same seed tree): additionally deny a host
  // subnet on an agg router's route-filter template.
  const Node* agg = net.tree.router("agg0");
  ASSERT_NE(agg, nullptr);
  const auto filters = agg->childrenOfKind(NodeKind::kRoutingProcess)[0]
                           ->childrenOfKind(NodeKind::kRouteFilter);
  Patch both = withdraw;
  if (!filters.empty()) {
    Edit deny;
    deny.op = Edit::Op::kAddNode;
    deny.targetPath = filters[0]->path();
    deny.kind = NodeKind::kRouteFilterRule;
    deny.attrs = {{"seq", "1"},
                  {"action", "deny"},
                  {"prefix", net.hostSubnets.begin()->second.str()}};
    both.add(deny);
  }
  const ConfigTree updated2 = both.applied(net.tree);
  const SimulationEngine engine(updated2);
  const Simulator oracle(updated2);
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(engine.violations(policies)));
  for (const auto& [subnet, owner] : oracle.topology().stubSubnets()) {
    EXPECT_EQ(oracle.computeRoutes(subnet), engine.computeRoutes(subnet))
        << subnet.str();
  }
}

// The violation order must equal the input policy order, here a shuffle
// that interleaves destinations.
TEST(EngineProperty, ViolationOrderMatchesInputOrder) {
  DcParams dc;
  dc.racks = 4;
  dc.aggs = 2;
  dc.spines = 2;
  dc.seed = 11;
  const GeneratedNetwork net = generateDatacenter(dc);
  const Simulator oracle(net.tree);
  PolicySet policies = oracle.inferReachabilityPolicies();
  std::mt19937_64 rng(11);
  std::shuffle(policies.begin(), policies.end(), rng);

  const SimulationEngine engine(net.tree);
  const PolicySet violated = engine.violations(policies);
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(violated));
}

}  // namespace
}  // namespace aed
