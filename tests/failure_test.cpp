// Failure injection: malformed inputs, impossible requests, and degenerate
// networks must produce clean, diagnosable errors — never crashes, silent
// corruption, or bogus patches.

#include <gtest/gtest.h>

#include "baselines/cpr.hpp"
#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "gen/manual.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

// ------------------------------------------------------- impossible requests

TEST(Failure, PhysicallyImpossibleReachability) {
  // Two disconnected islands: no update can join them.
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "router bgp 65001\n"
      " network 1.0.0.0/16\n"
      "hostname B\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "router bgp 65002\n"
      " network 2.0.0.0/16\n";
  const ConfigTree tree = parseNetworkConfig(text);
  const PolicySet policies = {
      Policy::reachability(cls("1.0.0.0/16", "2.0.0.0/16"))};
  const AedResult result = synthesize(tree, policies);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.error.empty());
}

TEST(Failure, WaypointOffAnyPossiblePath) {
  // D is a leaf hanging off B; traffic 4/16 (C) -> 1/16 (A) can never be
  // forced through D without looping.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::waypoint(cls("4.0.0.0/16", "1.0.0.0/16"), {"D"})};
  const AedResult result = synthesize(tree, policies);
  EXPECT_FALSE(result.success);
}

TEST(Failure, UnknownWaypointRouterThrows) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::waypoint(cls("4.0.0.0/16", "1.0.0.0/16"), {"Nonexistent"})};
  EXPECT_THROW(synthesize(tree, policies), AedError);
}

TEST(Failure, PathPreferenceWithSingletonPathThrows) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  Policy bad = Policy::pathPreference(cls("2.0.0.0/16", "4.0.0.0/16"),
                                      {"B"}, {"B", "A", "C"});
  EXPECT_THROW(synthesize(tree, {bad}), AedError);
}

TEST(Failure, ConflictingPoliciesAcrossDestinations) {
  // Same class required reachable and blocked -> one destination group,
  // unsat, clean error (paper §11: "SMT output for special cases").
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::reachability(cls("3.0.0.0/16", "2.0.0.0/16")),
      Policy::blocking(cls("3.0.0.0/16", "2.0.0.0/16")),
      Policy::reachability(cls("2.0.0.0/16", "1.0.0.0/16"))};
  const AedResult result = synthesize(tree, policies);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("unsatisfiable"), std::string::npos);
}

// ----------------------------------------------------------- malformed input

TEST(Failure, ObjectiveOverUnknownKindThrows) {
  EXPECT_THROW(parseObjective("NOMODIFY //Bogus"), AedError);
}

TEST(Failure, ObjectiveSelectingNothingIsVacuous) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P3()};
  const auto objectives =
      parseObjectives("NOMODIFY //Router[name=\"NoSuchRouter\"]");
  const AedResult result = synthesize(tree, policies, objectives);
  ASSERT_TRUE(result.success) << result.error;
  // Vacuously satisfied, reported as such.
  ASSERT_EQ(result.satisfiedObjectives.size(), 1u);
  EXPECT_NE(result.satisfiedObjectives[0].find("no matches"),
            std::string::npos);
}

// ----------------------------------------------------- degenerate topologies

TEST(Failure, SingleRouterNetwork) {
  const std::string text =
      "hostname Solo\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface hosts2\n"
      " ip address 2.0.0.1/16\n"
      "router bgp 65001\n"
      " network 1.0.0.0/16\n"
      " network 2.0.0.0/16\n";
  const ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  // Same-router classes deliver immediately.
  EXPECT_TRUE(
      sim.checkPolicy(Policy::reachability(cls("1.0.0.0/16", "2.0.0.0/16"))));
  const AedResult result = synthesize(
      tree, {Policy::reachability(cls("1.0.0.0/16", "2.0.0.0/16"))});
  EXPECT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.patch.empty());
}

TEST(Failure, AdjacencyReferencingMissingFilterIsUnfiltered) {
  // A filterIn naming a nonexistent filter behaves as "no filter" in both
  // the simulator and the encoder (alignment matters more than strictness).
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
      "router bgp 65002\n"
      " neighbor 10.0.1.1 remote-router A filter-in ghost\n";
  const ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  EXPECT_TRUE(
      sim.computeRoutes(*Ipv4Prefix::parse("1.0.0.0/16")).at("B").valid);
}

TEST(Failure, CprReportsUnfixableCleanly) {
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "router bgp 65001\n"
      " network 1.0.0.0/16\n"
      "hostname B\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "router bgp 65002\n"
      " network 2.0.0.0/16\n";
  const ConfigTree tree = parseNetworkConfig(text);
  const CprResult result = cprRepair(
      tree, {Policy::reachability(cls("1.0.0.0/16", "2.0.0.0/16"))});
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.error.empty());
}

TEST(Failure, ManualUpdaterReportsStuckCleanly) {
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "router bgp 65001\n"
      " network 1.0.0.0/16\n"
      "hostname B\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "router bgp 65002\n"
      " network 2.0.0.0/16\n";
  const ConfigTree tree = parseNetworkConfig(text);
  const ManualUpdateResult result = manualUpdate(
      tree, {Policy::reachability(cls("1.0.0.0/16", "2.0.0.0/16"))});
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace aed
