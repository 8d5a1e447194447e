#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "encode/encoder.hpp"
#include "fixtures.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

/// Builds a single-problem encoder over the Figure 1 network and checks.
struct Fig1Problem {
  ConfigTree tree;
  Topology topo;
  Sketch sketch;
  SmtSession session;
  Encoder encoder;

  explicit Fig1Problem(const PolicySet& policies, SketchOptions so = {},
                       EncoderOptions eo = {})
      : tree(parseNetworkConfig(figure1ConfigText())),
        topo(Topology::fromConfigs(tree)),
        sketch(buildSketch(tree, topo, policies, so)),
        encoder(session, tree, topo, sketch, eo) {
    encoder.encode(policies);
  }
};

// With all deltas pinned to "no change", the model must agree with the
// simulator about which policies hold. This is the model/simulator
// alignment property the whole system rests on.
TEST(EncoderAlignment, FrozenModelMatchesSimulator) {
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  // P1 and P2 hold today, P3 does not. Freeze all deltas and assert
  // P1 ∧ P2 ∧ ¬P3 is satisfiable (i.e. the frozen model represents the
  // current network faithfully).
  const PolicySet holdToday = {aed::testing::figure1P1(),
                               aed::testing::figure1P2()};
  Fig1Problem problem(holdToday);
  for (const DeltaVar& delta : problem.sketch.deltas()) {
    problem.session.addHard(!problem.encoder.deltaActive(delta));
  }
  EXPECT_TRUE(problem.session.check().sat());
}

TEST(EncoderAlignment, FrozenModelRejectsViolatedPolicy) {
  // P3 is violated today: freezing all deltas must make it unsat.
  Fig1Problem problem({aed::testing::figure1P3()});
  for (const DeltaVar& delta : problem.sketch.deltas()) {
    problem.session.addHard(!problem.encoder.deltaActive(delta));
  }
  EXPECT_FALSE(problem.session.check().sat());
}

TEST(Encoder, SolvesP3AndPatchValidates) {
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  Fig1Problem problem(policies);
  // Light minimality so the patch stays clean.
  for (const DeltaVar& delta : problem.sketch.deltas()) {
    problem.session.addSoft(!problem.encoder.deltaActive(delta), 1,
                            delta.name);
  }
  ASSERT_TRUE(problem.session.check().sat());
  const Patch patch = problem.encoder.extractPatch();
  EXPECT_FALSE(patch.empty());
  const ConfigTree updated = patch.applied(problem.tree);
  Simulator sim(updated);
  EXPECT_TRUE(sim.violations(policies).empty()) << patch.describe();
}

TEST(Encoder, BlockingPolicySynthesis) {
  // Block 2/16 -> 4/16 (currently reachable via B-C).
  const PolicySet policies = {
      Policy::blocking(cls("2.0.0.0/16", "4.0.0.0/16")),
      Policy::reachability(cls("2.0.0.0/16", "1.0.0.0/16"))};
  Fig1Problem problem(policies);
  for (const DeltaVar& delta : problem.sketch.deltas()) {
    problem.session.addSoft(!problem.encoder.deltaActive(delta), 1,
                            delta.name);
  }
  ASSERT_TRUE(problem.session.check().sat());
  const ConfigTree updated = problem.encoder.extractPatch().applied(
      problem.tree);
  Simulator sim(updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(Encoder, WaypointForcesDetour) {
  // 4/16 (at C) -> 2/16 (at B) currently goes C-B directly; require the
  // waypoint A. Also keep P1/P2 intact.
  const PolicySet policies = {
      Policy::waypoint(cls("4.0.0.0/16", "2.0.0.0/16"), {"A"}),
  };
  Fig1Problem problem(policies);
  for (const DeltaVar& delta : problem.sketch.deltas()) {
    problem.session.addSoft(!problem.encoder.deltaActive(delta), 1,
                            delta.name);
  }
  ASSERT_TRUE(problem.session.check().sat());
  const ConfigTree updated = problem.encoder.extractPatch().applied(
      problem.tree);
  Simulator sim(updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  const ForwardResult fwd = sim.forward(cls("4.0.0.0/16", "2.0.0.0/16"), "C");
  ASSERT_TRUE(fwd.delivered);
  EXPECT_NE(std::find(fwd.path.begin(), fwd.path.end(), "A"), fwd.path.end());
}

TEST(Encoder, PathPreferenceUsesFailureEnvironment) {
  // Prefer 2/16 -> 4/16 via the direct B-C link, fall back to B-A-C.
  const PolicySet policies = {Policy::pathPreference(
      cls("2.0.0.0/16", "4.0.0.0/16"), {"B", "C"}, {"B", "A", "C"})};
  Fig1Problem problem(policies);
  EXPECT_EQ(problem.encoder.environmentCount(), 2u);
  for (const DeltaVar& delta : problem.sketch.deltas()) {
    problem.session.addSoft(!problem.encoder.deltaActive(delta), 1,
                            delta.name);
  }
  ASSERT_TRUE(problem.session.check().sat());
  const ConfigTree updated = problem.encoder.extractPatch().applied(
      problem.tree);
  Simulator sim(updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(Encoder, UnsatisfiablePoliciesReportUnsat) {
  // Reach and block the same class simultaneously.
  const PolicySet policies = {
      Policy::reachability(cls("3.0.0.0/16", "2.0.0.0/16")),
      Policy::blocking(cls("3.0.0.0/16", "2.0.0.0/16"))};
  Fig1Problem problem(policies);
  EXPECT_FALSE(problem.session.check().sat());
}

TEST(Encoder, ReachabilityWithoutSourcesThrows) {
  const PolicySet policies = {
      Policy::reachability(cls("99.0.0.0/16", "2.0.0.0/16"))};
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  Topology topo = Topology::fromConfigs(tree);
  Sketch sketch = buildSketch(tree, topo, policies);
  SmtSession session;
  Encoder encoder(session, tree, topo, sketch);
  EXPECT_THROW(encoder.encode(policies), AedError);
}

TEST(Encoder, EncodeTwiceThrows) {
  const PolicySet policies = {aed::testing::figure1P1()};
  Fig1Problem problem(policies);
  EXPECT_THROW(problem.encoder.encode(policies), AedError);
}

// Integer-lp mode solves the same problems as boolean-lp mode.
TEST(Encoder, IntegerLpModeStillSolves) {
  const PolicySet policies = {aed::testing::figure1P3()};
  EncoderOptions eo;
  eo.booleanLp = false;
  Fig1Problem problem(policies, {}, eo);
  for (const DeltaVar& delta : problem.sketch.deltas()) {
    problem.session.addSoft(!problem.encoder.deltaActive(delta), 1,
                            delta.name);
  }
  ASSERT_TRUE(problem.session.check().sat());
  const ConfigTree updated = problem.encoder.extractPatch().applied(
      problem.tree);
  Simulator sim(updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

/// Encodes `policies` over the network `text` with every delta frozen to
/// "no change", so the model describes the network as configured.
struct FrozenProblem {
  ConfigTree tree;
  Topology topo;
  Sketch sketch;
  SmtSession session;
  Encoder encoder;
  PolicySet policies;

  FrozenProblem(const std::string& text, PolicySet policySet)
      : tree(parseNetworkConfig(text)),
        topo(Topology::fromConfigs(tree)),
        sketch(buildSketch(tree, topo, policySet)),
        encoder(session, tree, topo, sketch),
        policies(std::move(policySet)) {
    encoder.encode(policies);
    for (const DeltaVar& delta : sketch.deltas()) {
      session.addHard(!encoder.deltaActive(delta));
    }
  }

  bool sat() { return session.check().sat(); }
  bool simulatorHolds() const {
    return Simulator(tree).violations(policies).empty();
  }
  bool hasVar(const std::string& name) const {
    try {
      session.var(name);
      return true;
    } catch (const AedError&) {
      return false;
    }
  }
};

// Every class to one destination shares that destination's ranking: one
// dist variable per router and (environment, destination), none per class.
TEST(EncoderRanking, OneRankingPerDestination) {
  const PolicySet policies = {
      Policy::reachability(cls("4.0.0.0/16", "1.0.0.0/16")),
      Policy::blocking(cls("3.0.0.0/16", "1.0.0.0/16"))};
  FrozenProblem problem(figure1ConfigText(), policies);
  for (const std::string router : {"A", "B", "C", "D"}) {
    EXPECT_TRUE(problem.hasVar(mangle({"dist", router, "e0|1.0.0.0/16"})))
        << router;
    for (const Policy& policy : policies) {
      EXPECT_FALSE(problem.hasVar(mangle(
          {"dist", router,
           "e0|" + policy.cls.src.str() + ">" + policy.cls.dst.str()})))
          << router << " " << policy.str();
    }
  }
  EXPECT_TRUE(problem.sat());
  EXPECT_TRUE(problem.simulatorHolds());
}

// X and Y hold static routes for 9/16 through each other, so traffic from
// either loops although Z originates 9/16 in BGP. The shared ranking must
// still rule out the cycle supporting itself, for both sources.
std::string staticLoopConfigText() {
  return "hostname X\n"
         "interface hosts\n"
         " ip address 5.0.0.1/16\n"
         "interface toY\n"
         " ip address 10.0.1.1/30\n"
         "router static main\n"
         " route 9.0.0.0/16 10.0.1.2\n"
         "hostname Y\n"
         "interface hosts\n"
         " ip address 6.0.0.1/16\n"
         "interface toX\n"
         " ip address 10.0.1.2/30\n"
         "interface toZ\n"
         " ip address 10.0.2.1/30\n"
         "router bgp 65002\n"
         " neighbor 10.0.2.2 remote-router Z\n"
         "router static main\n"
         " route 9.0.0.0/16 10.0.1.1\n"
         "hostname Z\n"
         "interface hosts\n"
         " ip address 9.0.0.1/16\n"
         "interface toY\n"
         " ip address 10.0.2.2/30\n"
         "router bgp 65003\n"
         " neighbor 10.0.2.1 remote-router Y\n"
         " network 9.0.0.0/16\n";
}

TEST(EncoderRanking, StaticLoopReachesFromNeitherSource) {
  const Policy fromX = Policy::reachability(cls("5.0.0.0/16", "9.0.0.0/16"));
  const Policy fromY = Policy::reachability(cls("6.0.0.0/16", "9.0.0.0/16"));
  FrozenProblem both(staticLoopConfigText(), {fromX, fromY});
  EXPECT_FALSE(both.sat());
  EXPECT_EQ(Simulator(both.tree).violations(both.policies).size(), 2u);
  for (const Policy& policy : {fromX, fromY}) {
    FrozenProblem one(staticLoopConfigText(), {policy});
    EXPECT_FALSE(one.sat()) << policy.str();
    FrozenProblem blocked(staticLoopConfigText(),
                          {Policy::blocking(policy.cls)});
    EXPECT_TRUE(blocked.sat()) << policy.str();
    EXPECT_TRUE(blocked.simulatorHolds()) << policy.str();
  }
}

// A's first static route covering 9/16 points at B, which has no route
// onwards; its second points at C, which delivers. Like the simulator, the
// encoding uses only the first, so 1/16 cannot reach 9/16.
TEST(EncoderStatic, FirstCoveringStaticRouteWins) {
  const std::string text =
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.1.1/30\n"
      "interface toC\n"
      " ip address 10.0.2.1/30\n"
      "router static main\n"
      " route 9.0.0.0/16 10.0.1.2\n"
      " route 9.0.0.0/8 10.0.2.2\n"
      "hostname B\n"
      "interface toA\n"
      " ip address 10.0.1.2/30\n"
      "hostname C\n"
      "interface hosts\n"
      " ip address 9.0.0.1/16\n"
      "interface toA\n"
      " ip address 10.0.2.2/30\n";
  const TrafficClass traffic = cls("1.0.0.0/16", "9.0.0.0/16");
  FrozenProblem reach(text, {Policy::reachability(traffic)});
  EXPECT_FALSE(reach.simulatorHolds());
  EXPECT_FALSE(reach.sat());
  FrozenProblem block(text, {Policy::blocking(traffic)});
  EXPECT_TRUE(block.simulatorHolds());
  EXPECT_TRUE(block.sat());
}

// A learns 9/16 from B and from C over equally long paths, and C drops
// traffic from 1/16 towards D. The name tie-break picks B, unless A's
// filter on C sets lp 200.
std::string lpDiamondConfigText(bool lpFilter) {
  return std::string("hostname A\n"
                     "interface hosts\n"
                     " ip address 1.0.0.1/16\n"
                     "interface toB\n"
                     " ip address 10.0.1.1/30\n"
                     "interface toC\n"
                     " ip address 10.0.2.1/30\n"
                     "router bgp 65001\n"
                     " neighbor 10.0.1.2 remote-router B\n") +
         (lpFilter ? " neighbor 10.0.2.2 remote-router C filter-in rf_c\n"
                     " route-filter rf_c seq 10 permit any set "
                     "local-preference 200\n"
                   : " neighbor 10.0.2.2 remote-router C\n") +
         " network 1.0.0.0/16\n"
         "hostname B\n"
         "interface toA\n"
         " ip address 10.0.1.2/30\n"
         "interface toD\n"
         " ip address 10.0.3.1/30\n"
         "router bgp 65002\n"
         " neighbor 10.0.1.1 remote-router A\n"
         " neighbor 10.0.3.2 remote-router D\n"
         "hostname C\n"
         "interface toA\n"
         " ip address 10.0.2.2/30\n"
         "interface toD\n"
         " ip address 10.0.4.1/30\n"
         " packet-filter-out pf_c\n"
         "router bgp 65003\n"
         " neighbor 10.0.2.1 remote-router A\n"
         " neighbor 10.0.4.2 remote-router D\n"
         "packet-filter pf_c seq 10 deny 1.0.0.0/16 any\n"
         "packet-filter pf_c seq 20 permit any any\n"
         "hostname D\n"
         "interface hosts\n"
         " ip address 9.0.0.1/16\n"
         "interface toB\n"
         " ip address 10.0.3.2/30\n"
         "interface toC\n"
         " ip address 10.0.4.2/30\n"
         "router bgp 65004\n"
         " neighbor 10.0.3.1 remote-router B\n"
         " neighbor 10.0.4.1 remote-router C\n"
         " network 9.0.0.0/16\n";
}

TEST(EncoderSelection, LpSettingFilterKeepsLpInTheSelection) {
  const TrafficClass traffic = cls("1.0.0.0/16", "9.0.0.0/16");
  for (const bool lpFilter : {false, true}) {
    SCOPED_TRACE(lpFilter ? "lp 200 on C" : "default lp");
    FrozenProblem reach(lpDiamondConfigText(lpFilter),
                        {Policy::reachability(traffic)});
    EXPECT_EQ(reach.simulatorHolds(), !lpFilter);
    EXPECT_EQ(reach.sat(), !lpFilter);
    EXPECT_EQ(reach.hasVar(mangle({"bestLp", "A", "bgp", "e0|9.0.0.0/16"})),
              lpFilter);
    FrozenProblem block(lpDiamondConfigText(lpFilter),
                        {Policy::blocking(traffic)});
    EXPECT_EQ(block.simulatorHolds(), lpFilter);
    EXPECT_EQ(block.sat(), lpFilter);
  }
}

// Where every candidate carries the default lp and med, selection compares
// costs only and no best-record field holds them.
TEST(EncoderSelection, DefaultMetricsCreateNoBestLpOrMed) {
  FrozenProblem problem(
      lpDiamondConfigText(false),
      {Policy::reachability(cls("1.0.0.0/16", "9.0.0.0/16")),
       Policy::reachability(cls("9.0.0.0/16", "1.0.0.0/16"))});
  for (const std::string router : {"A", "B", "C", "D"}) {
    for (const std::string layer : {"e0|9.0.0.0/16", "e0|1.0.0.0/16"}) {
      EXPECT_TRUE(problem.hasVar(mangle({"bestCost", router, "bgp", layer})));
      EXPECT_FALSE(problem.hasVar(mangle({"bestLp", router, "bgp", layer})))
          << router << " " << layer;
      EXPECT_FALSE(problem.hasVar(mangle({"bestMed", router, "bgp", layer})))
          << router << " " << layer;
    }
  }
}

}  // namespace
}  // namespace aed
