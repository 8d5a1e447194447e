// Incremental re-solve engine: equivalence with the fresh-per-round path on
// repair-round fixtures, phase-stat accounting, where the fresh-per-round
// solvers are freed, the mergePatches positive seq floor, malformed-attribute
// parsing, and ThreadPool::runAll exception collection.
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "core/subsolver.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "objectives/objective.hpp"
#include "obs/trace.hpp"
#include "simulate/simulator.hpp"
#include "smt/session.hpp"
#include "util/thread_pool.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;
using aed::testing::figure1P1;
using aed::testing::figure1P2;
using aed::testing::figure1P3;

PolicySet figure1Policies() {
  return {figure1P1(), figure1P2(), figure1P3()};
}

/// Per-destination repair fixture: a small leaf-spine fabric with one rack's
/// host-subnet origination withdrawn. Restoring reachability has several
/// distinct fixes (re-originate, redistribute connected, static-route
/// chain), so the run still converges after kRejectValidation forces one or
/// two candidate delta sets to be blocked. (The figure-1 fixture is
/// unsuitable here: its deny rule matches `any`, which destination scoping
/// refuses to remove or flip, so the one add-rule delta is the only fix and
/// blocking it makes the re-solve unsat.)
struct RepairFixture {
  ConfigTree tree;
  PolicySet policies;
};

RepairFixture dcRepairFixture() {
  DcParams params;
  params.racks = 3;
  params.aggs = 1;
  params.spines = 0;
  params.blockedPairFraction = 0.0;
  params.seed = 29;
  GeneratedNetwork net = generateDatacenter(params);
  PolicySet policies = makeWithdrawnSubnetUpdate(net, "rack0");
  return {std::move(net.tree), std::move(policies)};
}

/// kRejectValidation deterministically fails the first two
/// otherwise-passing validation verdicts, so the blocking + re-solve
/// machinery runs for real, twice, before the run converges.
AedOptions repairHeavyOptions(bool incremental) {
  AedOptions options;
  options.incrementalResolve = incremental;
  options.maxRepairIterations = 5;
  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = 2;
  return options;
}

// ---- incremental vs fresh-per-round equivalence ---------------------------

TEST(Incremental, RepairRoundsProduceValidatedPatchInBothModes) {
  const RepairFixture fixture = dcRepairFixture();
  const ConfigTree& tree = fixture.tree;
  const PolicySet& policies = fixture.policies;

  for (const bool incremental : {false, true}) {
    const AedResult result =
        synthesize(tree, policies, {}, repairHeavyOptions(incremental));
    ASSERT_TRUE(result.success)
        << "incremental=" << incremental << ": " << result.error;
    EXPECT_GE(result.stats.repairRounds, 2u) << "incremental=" << incremental;
    // The final patch must pass the same simulator validation in both
    // modes: zero violated policies.
    Simulator sim(result.updated);
    EXPECT_TRUE(sim.violations(policies).empty())
        << "incremental=" << incremental;
  }
}

TEST(Incremental, SequentialModeAlsoConverges) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1Policies();
  AedOptions options = repairHeavyOptions(true);
  options.perDestination = false;  // one monolithic persistent solver
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GE(result.stats.repairRounds, 2u);
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(Incremental, RepairRoundsSkipSketchAndEncode) {
  const RepairFixture fixture = dcRepairFixture();
  const ConfigTree& tree = fixture.tree;
  const PolicySet& policies = fixture.policies;

  const AedResult incremental =
      synthesize(tree, policies, {}, repairHeavyOptions(true));
  ASSERT_TRUE(incremental.success) << incremental.error;
  EXPECT_GT(incremental.stats.firstRound.encodeSeconds, 0.0);
  EXPECT_GT(incremental.stats.firstRound.solveSeconds, 0.0);
  EXPECT_GT(incremental.stats.repair.solveSeconds, 0.0);
  // The persistent solvers never rebuild the sketch or the encoding.
  EXPECT_EQ(incremental.stats.repair.sketchSeconds, 0.0);
  EXPECT_EQ(incremental.stats.repair.encodeSeconds, 0.0);

  const AedResult fresh =
      synthesize(tree, policies, {}, repairHeavyOptions(false));
  ASSERT_TRUE(fresh.success) << fresh.error;
  // The fresh-per-round baseline pays encoding again in every repair round.
  EXPECT_GT(fresh.stats.repair.encodeSeconds, 0.0);
}

TEST(Incremental, SubproblemSolverReusesEncodingAcrossRounds) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const Topology topo = Topology::fromConfigs(tree);
  const PolicySet policies = figure1Policies();

  SubproblemSolver solver(tree, topo, policies, {}, AedOptions{});
  std::vector<std::vector<std::string>> blocked;

  const SubResult first = solver.solve(blocked, Deadline::unlimited());
  ASSERT_EQ(first.outcome, SubOutcome::kOk) << first.detail;
  ASSERT_FALSE(first.activeDeltas.empty());
  EXPECT_GT(first.phases.encodeSeconds, 0.0);

  // Block the first model's delta set: the re-solve must avoid it without
  // re-encoding.
  blocked.push_back(first.activeDeltas);
  const SubResult second = solver.solve(blocked, Deadline::unlimited());
  ASSERT_EQ(second.outcome, SubOutcome::kOk) << second.detail;
  EXPECT_EQ(second.phases.sketchSeconds, 0.0);
  EXPECT_EQ(second.phases.encodeSeconds, 0.0);
  EXPECT_NE(second.activeDeltas, first.activeDeltas);
  EXPECT_EQ(solver.rounds(), 2);
}

// With incrementalResolve off no solver outlives its solve: each one is
// freed on the thread that solved it, inside its subproblem span, and the
// run's teardown finds nothing left to free.
TEST(Incremental, FreshSolversAreFreedInsideTheirSubproblem) {
  const RepairFixture fixture = dcRepairFixture();
  Tracer::clear();
  Tracer::enable();
  const AedResult result = synthesize(fixture.tree, fixture.policies, {},
                                      repairHeavyOptions(false));
  Tracer::disable();
  const std::vector<TraceEvent> events = Tracer::collect();
  Tracer::clear();
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_GE(result.stats.repairRounds, 2u);

  std::map<std::uint64_t, std::size_t> freesUnder;
  for (const TraceEvent& event : events) {
    if (std::string("subsolver.free") == event.name) ++freesUnder[event.parent];
  }
  std::size_t subproblems = 0;
  std::size_t teardowns = 0;
  for (const TraceEvent& event : events) {
    if (std::string("aed.subproblem") == event.name) {
      ++subproblems;
      EXPECT_EQ(freesUnder[event.id], 1u) << event.detail;
    } else if (std::string("aed.teardown") == event.name) {
      ++teardowns;
      EXPECT_EQ(freesUnder[event.id], 0u);
    }
  }
  // Round 0 solves every group; each repair round re-solves some again.
  EXPECT_GT(subproblems, result.stats.subproblems);
  EXPECT_EQ(teardowns, 1u);
}

TEST(Incremental, FaultInjectionRejectCountsRepairRounds) {
  const RepairFixture fixture = dcRepairFixture();
  AedOptions options = repairHeavyOptions(true);
  options.faultInjection.rejectRounds = 1;
  const AedResult result =
      synthesize(fixture.tree, fixture.policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GE(result.stats.repairRounds, 1u);
}

// ---- SMT-level warm start --------------------------------------------------

TEST(Incremental, WarmStartReusesOptimumAfterAddHard) {
  SmtSession session;
  const z3::expr a = session.boolVar("a");
  const z3::expr b = session.boolVar("b");
  const z3::expr c = session.boolVar("c");
  session.addHard(a || b || c);
  session.addSoft(!a, 1, "not-a");
  session.addSoft(!b, 1, "not-b");
  session.addSoft(!c, 1, "not-c");

  const SmtSession::Result first = session.check();
  ASSERT_TRUE(first.sat);
  EXPECT_FALSE(first.warmStart);  // no prior optimum to warm-start from
  EXPECT_EQ(first.violatedObjectives.size(), 1u);

  // Block the chosen variable. Another single-violation model exists, so the
  // re-check must go through the warm-start fast path and stay optimal.
  const z3::expr chosen =
      session.evalBool(a) ? a : (session.evalBool(b) ? b : c);
  session.addHard(!chosen);
  const SmtSession::Result second = session.check();
  ASSERT_TRUE(second.sat);
  EXPECT_TRUE(second.warmStart);
  EXPECT_EQ(second.violatedObjectives.size(), 1u);
  EXPECT_FALSE(session.evalBool(chosen));
}

TEST(Incremental, WarmStartDeclinesWhenOptimumGrows) {
  SmtSession session;
  const z3::expr a = session.boolVar("a");
  const z3::expr b = session.boolVar("b");
  session.addHard(a || b);
  session.addSoft(!a, 1, "not-a");
  session.addSoft(!b, 1, "not-b");
  const SmtSession::Result first = session.check();
  ASSERT_TRUE(first.sat);
  EXPECT_EQ(first.violatedObjectives.size(), 1u);

  // Force both variables: the optimum grows from 1 to 2. The warm probe has
  // to fail and the full MaxSMT engine must re-run and re-optimize.
  session.addHard(a);
  session.addHard(b);
  const SmtSession::Result second = session.check();
  ASSERT_TRUE(second.sat);
  EXPECT_FALSE(second.warmStart);
  EXPECT_EQ(second.violatedObjectives.size(), 2u);
}

// ---- mergePatches: positive sequence-number floor --------------------------

Edit ruleAdd(const std::string& target, int seq, const std::string& src,
             const std::string& dst) {
  return Edit{Edit::Op::kAddNode, target, NodeKind::kPacketFilterRule,
              {{"seq", std::to_string(seq)},
               {"action", "permit"},
               {"srcPrefix", src},
               {"dstPrefix", dst}}};
}

TEST(MergePatches, CollisionAtSeqOneRenumbersUpwardNotToZero) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a, b;
  a.add(ruleAdd(target, 1, "1.0.0.0/16", "2.0.0.0/16"));
  b.add(ruleAdd(target, 1, "3.0.0.0/16", "4.0.0.0/16"));
  const Patch merged = mergePatches({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.edits()[0].attrs.at("seq"), "1");
  // No free positive slot below 1: the nearest free positive gap is 2.
  EXPECT_EQ(merged.edits()[1].attrs.at("seq"), "2");
}

TEST(MergePatches, ManyCollisionsNeverGoNonPositive) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  std::vector<Patch> patches;
  for (int i = 0; i < 6; ++i) {
    Patch p;
    p.add(ruleAdd(target, 2, "1.0.0.0/16",
                  std::to_string(10 + i) + ".0.0.0/16"));
    patches.push_back(std::move(p));
  }
  const Patch merged = mergePatches(patches);
  ASSERT_EQ(merged.size(), 6u);
  std::set<int> seqs;
  for (const Edit& edit : merged.edits()) {
    const int seq = std::stoi(edit.attrs.at("seq"));
    EXPECT_GE(seq, 1) << "non-positive seq emitted";
    EXPECT_TRUE(seqs.insert(seq).second) << "duplicate seq " << seq;
  }
}

TEST(MergePatches, NonPositiveInputSeqIsLiftedToPositive) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a;
  a.add(ruleAdd(target, 0, "1.0.0.0/16", "2.0.0.0/16"));
  a.add(ruleAdd(target, -3, "3.0.0.0/16", "4.0.0.0/16"));
  const Patch merged = mergePatches({a});
  ASSERT_EQ(merged.size(), 2u);
  for (const Edit& edit : merged.edits()) {
    EXPECT_GE(std::stoi(edit.attrs.at("seq")), 1);
  }
}

TEST(MergePatches, CollisionRenumberingIsDeterministic) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a, b, c;
  a.add(ruleAdd(target, 5, "1.0.0.0/16", "2.0.0.0/16"));
  b.add(ruleAdd(target, 5, "3.0.0.0/16", "4.0.0.0/16"));
  c.add(ruleAdd(target, 4, "5.0.0.0/16", "6.0.0.0/16"));
  const Patch first = mergePatches({a, b, c});
  const Patch second = mergePatches({a, b, c});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first.edits()[i].attrs.at("seq"),
              second.edits()[i].attrs.at("seq"));
  }
  // b collides at 5 and takes the nearest free positive slot below: 4 is
  // free at merge time of b (c comes later), so b gets 4 and c renumbers.
  EXPECT_EQ(first.edits()[0].attrs.at("seq"), "5");
  EXPECT_EQ(first.edits()[1].attrs.at("seq"), "4");
  EXPECT_EQ(first.edits()[2].attrs.at("seq"), "3");
}

// ---- malformed config attributes ------------------------------------------

TEST(IntAttr, MalformedAttributeThrowsStructuredParseError) {
  ConfigTree tree;
  Node& router = tree.addRouter("R1");
  Node& filter = router.addChild(NodeKind::kPacketFilter);
  filter.setAttr("name", "pf");
  Node& rule = filter.addChild(NodeKind::kPacketFilterRule);
  rule.setAttr("seq", "banana");
  try {
    rule.intAttr("seq");
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
    // The error names the node path so the operator can find the line.
    EXPECT_NE(std::string(e.what()).find("PacketFilter[name=pf]"),
              std::string::npos);
  }
}

TEST(IntAttr, MissingAttributeThrowsWithoutFallback) {
  ConfigTree tree;
  Node& router = tree.addRouter("R1");
  try {
    router.intAttr("cost");
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

TEST(IntAttr, FallbackAppliesOnlyWhenAbsent) {
  ConfigTree tree;
  Node& router = tree.addRouter("R1");
  EXPECT_EQ(router.intAttr("cost", 7), 7);
  router.setAttr("cost", "12");
  EXPECT_EQ(router.intAttr("cost", 7), 12);
  router.setAttr("cost", "12x");
  EXPECT_THROW(router.intAttr("cost", 7), AedError);
}

TEST(IntAttr, SimulatorSurfacesMalformedSeqInsteadOfAborting) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const auto rules = tree.collect(NodeKind::kPacketFilterRule);
  ASSERT_FALSE(rules.empty());
  rules.front()->setAttr("seq", "not-a-number");
  Simulator sim(tree);
  try {
    sim.violations({figure1P1()});
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

TEST(IntAttr, ObjectiveWeightParseErrorIsStructured) {
  try {
    parseObjective("NOMODIFY //Router WEIGHT twelve");
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

// ---- ThreadPool::runAll exception collection ------------------------------

TEST(RunParallel, CollectsEveryFutureBeforeRethrowing) {
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([] {
    throw AedError(ErrorCode::kSubproblemFailed, "task 0 failed");
  });
  for (int i = 0; i < 3; ++i) {
    tasks.emplace_back([&completed] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++completed;
    });
  }
  try {
    ThreadPool(4).runAll(std::move(tasks));
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSubproblemFailed);
  }
  // Every sibling ran to completion and had its future collected.
  EXPECT_EQ(completed.load(), 3);
}

TEST(RunParallel, FirstExceptionWinsWhenSeveralThrow) {
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back(
      [] { throw AedError(ErrorCode::kTimeout, "first failure"); });
  tasks.emplace_back(
      [] { throw AedError(ErrorCode::kInternal, "second failure"); });
  try {
    ThreadPool(1).runAll(std::move(tasks));  // one worker: deterministic order
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
}

}  // namespace
}  // namespace aed
