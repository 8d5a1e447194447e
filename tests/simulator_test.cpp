#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "fixtures.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

class Figure1Sim : public ::testing::Test {
 protected:
  Figure1Sim()
      : tree_(parseNetworkConfig(figure1ConfigText())), sim_(tree_) {}

  ConfigTree tree_;
  Simulator sim_;
};

TEST_F(Figure1Sim, LocalDelivery) {
  EXPECT_TRUE(sim_.deliversLocally("A", *Ipv4Prefix::parse("1.0.0.0/16")));
  EXPECT_TRUE(sim_.deliversLocally("B", *Ipv4Prefix::parse("2.0.0.0/16")));
  EXPECT_FALSE(sim_.deliversLocally("B", *Ipv4Prefix::parse("1.0.0.0/16")));
}

TEST_F(Figure1Sim, RoutesToOneSlashSixteen) {
  // B's route filter denies 1.0.0.0/16 from A, so B must route via C.
  const auto routes = sim_.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16"));
  EXPECT_EQ(routes.at("A").protocol, "connected");
  ASSERT_TRUE(routes.at("B").valid);
  EXPECT_EQ(routes.at("B").viaNeighbor, "C");
  ASSERT_TRUE(routes.at("C").valid);
  EXPECT_EQ(routes.at("C").viaNeighbor, "A");
  ASSERT_TRUE(routes.at("D").valid);
  EXPECT_EQ(routes.at("D").viaNeighbor, "B");
}

TEST_F(Figure1Sim, LocalPreferenceAppliedOnImport) {
  // For 4.0.0.0/16 (hosts at C), B hears from C directly (lp 100) and from
  // A (filter sets lp 20). Direct via C must win.
  const auto routes = sim_.computeRoutes(*Ipv4Prefix::parse("4.0.0.0/16"));
  EXPECT_EQ(routes.at("B").viaNeighbor, "C");
  // And for 1.0.0.0/16 the A-route is denied entirely (tested above); the
  // lp=20 assignment is visible on B's route for 4/16 learned from A only if
  // C-link removed -- covered in the failure-environment test below.
}

TEST_F(Figure1Sim, FailureEnvironmentReroutes) {
  // With the B-C link down, B's only route to 1/16 is via A, which the
  // filter denies for 1/16 -> B has no route.
  const Environment env = Environment::withDownLink("B", "C");
  const auto routes =
      sim_.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16"), env);
  EXPECT_FALSE(routes.at("B").valid);
  // But 4.0.0.0/16 (C's subnet) is still reachable from B via A with lp 20.
  const auto routes4 =
      sim_.computeRoutes(*Ipv4Prefix::parse("4.0.0.0/16"), env);
  ASSERT_TRUE(routes4.at("B").valid);
  EXPECT_EQ(routes4.at("B").viaNeighbor, "A");
  EXPECT_EQ(routes4.at("B").lp, 20);
}

TEST_F(Figure1Sim, ForwardDelivers) {
  const ForwardResult fwd = sim_.forward(cls("2.0.0.0/16", "1.0.0.0/16"), "B");
  EXPECT_TRUE(fwd.delivered);
  EXPECT_EQ(fwd.path, (std::vector<std::string>{"B", "C", "A"}));
  EXPECT_EQ(fwd.drop, DropKind::kNone);
  EXPECT_TRUE(fwd.dropAt.empty());
}

TEST_F(Figure1Sim, ForwardBlockedByPacketFilter) {
  // 3/16 -> 2/16 enters B from D and is dropped by pf_b.
  const ForwardResult fwd = sim_.forward(cls("3.0.0.0/16", "2.0.0.0/16"), "D");
  EXPECT_FALSE(fwd.delivered);
  EXPECT_NE(fwd.dropReason.find("ingress filter at B"), std::string::npos);
  EXPECT_EQ(fwd.drop, DropKind::kIngressFilter);
  EXPECT_EQ(fwd.dropAt, "B");
}

TEST_F(Figure1Sim, SourceRouters) {
  EXPECT_EQ(sim_.sourceRouters(cls("3.0.0.0/16", "2.0.0.0/16")),
            (std::vector<std::string>{"D"}));
  EXPECT_TRUE(sim_.sourceRouters(cls("99.0.0.0/16", "2.0.0.0/16")).empty());
}

TEST_F(Figure1Sim, PaperPolicies) {
  EXPECT_TRUE(sim_.checkPolicy(aed::testing::figure1P1()));
  EXPECT_TRUE(sim_.checkPolicy(aed::testing::figure1P2()));
  EXPECT_FALSE(sim_.checkPolicy(aed::testing::figure1P3()));

  const PolicySet all = {aed::testing::figure1P1(), aed::testing::figure1P2(),
                         aed::testing::figure1P3()};
  const PolicySet violated = sim_.violations(all);
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated[0].kind, PolicyKind::kReachability);
}

TEST_F(Figure1Sim, InferredPoliciesMatchForwarding) {
  const PolicySet inferred = sim_.inferReachabilityPolicies();
  // 4 stub subnets -> 12 ordered pairs.
  EXPECT_EQ(inferred.size(), 12u);
  int blocking = 0;
  for (const Policy& p : inferred) {
    if (p.kind == PolicyKind::kBlocking) ++blocking;
    // Every inferred policy holds by construction.
    EXPECT_TRUE(sim_.checkPolicy(p)) << p.str();
  }
  // Traffic from 3.0.0.0/16 to everything beyond B is filtered: 3->1, 3->2,
  // 3->4 blocked.
  EXPECT_EQ(blocking, 3);
}

TEST_F(Figure1Sim, WaypointHonorsAllWaypoints) {
  EXPECT_TRUE(sim_.checkPolicy(
      Policy::waypoint(cls("2.0.0.0/16", "1.0.0.0/16"), {"C", "A"})));
  EXPECT_FALSE(sim_.checkPolicy(
      Policy::waypoint(cls("2.0.0.0/16", "1.0.0.0/16"), {"D"})));
}

TEST_F(Figure1Sim, IsolationPolicy) {
  // 2->1 goes B-C-A; 4->1 goes C-A: they share link C-A.
  EXPECT_FALSE(sim_.checkPolicy(Policy::isolation(
      cls("2.0.0.0/16", "1.0.0.0/16"), cls("4.0.0.0/16", "1.0.0.0/16"))));
  // 3->4 (D-B-C, blocked at B anyway -> no edges beyond D-B... the class is
  // dropped at B's ingress so its edge set is {D-B}) vs 2->1 (B-C-A):
  // disjoint.
  EXPECT_TRUE(sim_.checkPolicy(Policy::isolation(
      cls("3.0.0.0/16", "4.0.0.0/16"), cls("2.0.0.0/16", "1.0.0.0/16"))));
}

// ------------------------------------------------------------- static routes

TEST(SimulatorStatic, StaticRouteForwardsAndWinsByAd) {
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.1.1/30\n"
      "router bgp 65001\n"
      " neighbor 10.0.1.2 remote-router B\n"
      " network 1.0.0.0/16\n"
      "hostname B\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "interface toA\n"
      " ip address 10.0.1.2/30\n"
      "router bgp 65002\n"
      " neighbor 10.0.1.1 remote-router A\n"
      " network 2.0.0.0/16\n"
      "router static main\n"
      " route 1.0.0.0/16 10.0.1.1\n";
  ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  const auto routes = sim.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16"));
  ASSERT_TRUE(routes.at("B").valid);
  EXPECT_EQ(routes.at("B").protocol, "static");
  EXPECT_EQ(routes.at("B").ad, kAdStatic);
  EXPECT_EQ(routes.at("B").viaNeighbor, "A");
  EXPECT_TRUE(sim.forward(cls("2.0.0.0/16", "1.0.0.0/16"), "B").delivered);
}

TEST(SimulatorStatic, StaticRouteIgnoredWhenLinkDown) {
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.1.1/30\n"
      "hostname B\n"
      "interface toA\n"
      " ip address 10.0.1.2/30\n"
      "router static main\n"
      " route 1.0.0.0/16 10.0.1.1\n";
  ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  const Environment down = Environment::withDownLink("A", "B");
  EXPECT_FALSE(
      sim.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16"), down).at("B").valid);
}

// ------------------------------------------------------------ redistribution

TEST(SimulatorRedistribution, BgpIntoOspf) {
  // A(bgp) - B(bgp+ospf, redistributes bgp into ospf) - C(ospf only).
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.1.1/30\n"
      "router bgp 65001\n"
      " neighbor 10.0.1.2 remote-router B\n"
      " network 1.0.0.0/16\n"
      "hostname B\n"
      "interface toA\n"
      " ip address 10.0.1.2/30\n"
      "interface toC\n"
      " ip address 10.0.2.1/30\n"
      "router bgp 65002\n"
      " neighbor 10.0.1.1 remote-router A\n"
      "router ospf 10\n"
      " neighbor 10.0.2.2 remote-router C\n"
      " redistribute bgp\n"
      "hostname C\n"
      "interface hosts\n"
      " ip address 3.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.2.2/30\n"
      "router ospf 10\n"
      " neighbor 10.0.2.1 remote-router B\n";
  ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  const auto routes = sim.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16"));
  ASSERT_TRUE(routes.at("C").valid);
  EXPECT_EQ(routes.at("C").protocol, "ospf");
  EXPECT_EQ(routes.at("C").viaNeighbor, "B");
  EXPECT_TRUE(sim.forward(cls("3.0.0.0/16", "1.0.0.0/16"), "C").delivered);
}

TEST(SimulatorRedistribution, NoRedistributionNoRoute) {
  // Same as above but without the redistribute line: C has no route.
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.1.1/30\n"
      "router bgp 65001\n"
      " neighbor 10.0.1.2 remote-router B\n"
      " network 1.0.0.0/16\n"
      "hostname B\n"
      "interface toA\n"
      " ip address 10.0.1.2/30\n"
      "interface toC\n"
      " ip address 10.0.2.1/30\n"
      "router bgp 65002\n"
      " neighbor 10.0.1.1 remote-router A\n"
      "router ospf 10\n"
      " neighbor 10.0.2.2 remote-router C\n"
      "hostname C\n"
      "interface toB\n"
      " ip address 10.0.2.2/30\n"
      "router ospf 10\n"
      " neighbor 10.0.2.1 remote-router B\n";
  ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  EXPECT_FALSE(
      sim.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16")).at("C").valid);
}

// -------------------------------------------------------- adjacency symmetry

TEST(SimulatorAdjacency, OneSidedAdjacencyDoesNotComeUp) {
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.1.1/30\n"
      "router bgp 65001\n"
      " neighbor 10.0.1.2 remote-router B\n"
      " network 1.0.0.0/16\n"
      "hostname B\n"
      "interface toA\n"
      " ip address 10.0.1.2/30\n"
      "router bgp 65002\n";  // B does not configure the neighbor
  ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  EXPECT_FALSE(
      sim.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16")).at("B").valid);
}

// ------------------------------------------------------------ path preference

TEST(SimulatorPathPref, PrimaryThenAlternate) {
  // Diamond: S - X - T and S - Y - T; S prefers X via local-preference.
  const std::string text =
      "hostname S\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toX\n"
      " ip address 10.0.1.1/30\n"
      "interface toY\n"
      " ip address 10.0.2.1/30\n"
      "router bgp 65001\n"
      " neighbor 10.0.1.2 remote-router X filter-in rf_x\n"
      " neighbor 10.0.2.2 remote-router Y\n"
      " network 1.0.0.0/16\n"
      " route-filter rf_x seq 10 permit any set local-preference 200\n"
      "hostname X\n"
      "interface toS\n"
      " ip address 10.0.1.2/30\n"
      "interface toT\n"
      " ip address 10.0.3.1/30\n"
      "router bgp 65002\n"
      " neighbor 10.0.1.1 remote-router S\n"
      " neighbor 10.0.3.2 remote-router T\n"
      "hostname Y\n"
      "interface toS\n"
      " ip address 10.0.2.2/30\n"
      "interface toT\n"
      " ip address 10.0.4.1/30\n"
      "router bgp 65003\n"
      " neighbor 10.0.2.1 remote-router S\n"
      " neighbor 10.0.4.2 remote-router T\n"
      "hostname T\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "interface toX\n"
      " ip address 10.0.3.2/30\n"
      "interface toY\n"
      " ip address 10.0.4.2/30\n"
      "router bgp 65004\n"
      " neighbor 10.0.3.1 remote-router X\n"
      " neighbor 10.0.4.1 remote-router Y\n"
      " network 2.0.0.0/16\n";
  ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  EXPECT_TRUE(sim.checkPolicy(Policy::pathPreference(
      cls("1.0.0.0/16", "2.0.0.0/16"), {"S", "X", "T"}, {"S", "Y", "T"})));
  // The reverse preference does not hold.
  EXPECT_FALSE(sim.checkPolicy(Policy::pathPreference(
      cls("1.0.0.0/16", "2.0.0.0/16"), {"S", "Y", "T"}, {"S", "X", "T"})));
}

// Regression: a single-router primary path used to index primaryPath[1]
// after only checking empty(), reading out of bounds. Such a policy has no
// first link to fail, so it must simply be unsatisfied.
TEST(SimulatorPathPref, SingleRouterPrimaryPathIsUnsatisfied) {
  const std::string text =
      "hostname A\n"
      "interface hostsSrc\n"
      " ip address 1.0.0.1/16\n"
      "interface hostsDst\n"
      " ip address 2.0.0.1/16\n"
      "router bgp 65001\n"
      " network 1.0.0.0/16\n"
      " network 2.0.0.0/16\n";
  ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  const Policy degenerate =
      Policy::pathPreference(cls("1.0.0.0/16", "2.0.0.0/16"), {"A"}, {"A"});
  EXPECT_FALSE(sim.checkPolicy(degenerate));
  EXPECT_EQ(sim.violations({degenerate}).size(), 1u);
}

TEST(SimulatorStructural, ShortCircuitMatchesFullCheck) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  Simulator sim(tree);
  // No stub subnet overlaps 99.0.0.0/8: reachability fails and blocking
  // holds without running any forwarding.
  const auto ghost = cls("99.0.0.0/8", "1.0.0.0/16");
  EXPECT_EQ(structuralPolicyCheck(Policy::reachability(ghost),
                                  sim.sourceRouters(ghost)),
            std::optional<bool>(false));
  EXPECT_EQ(structuralPolicyCheck(Policy::blocking(ghost),
                                  sim.sourceRouters(ghost)),
            std::optional<bool>(true));
  EXPECT_FALSE(sim.checkPolicy(Policy::reachability(ghost)));
  EXPECT_TRUE(sim.checkPolicy(Policy::blocking(ghost)));
  // A decidable policy (populated source set) is left to the full check.
  const auto live = cls("3.0.0.0/16", "2.0.0.0/16");
  EXPECT_EQ(structuralPolicyCheck(Policy::reachability(live),
                                  sim.sourceRouters(live)),
            std::nullopt);
  // violations() keeps input order with structurally-settled policies mixed
  // into the set.
  const PolicySet mixed = {Policy::reachability(ghost),
                           aed::testing::figure1P1(),
                           Policy::blocking(ghost),
                           aed::testing::figure1P3()};
  const PolicySet violated = sim.violations(mixed);
  ASSERT_EQ(violated.size(), 2u);
  EXPECT_EQ(violated[0].str(), Policy::reachability(ghost).str());
  EXPECT_EQ(violated[1].str(), aed::testing::figure1P3().str());
}

}  // namespace
}  // namespace aed
