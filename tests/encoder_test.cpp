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

}  // namespace
}  // namespace aed
