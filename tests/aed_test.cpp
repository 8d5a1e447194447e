#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "core/subsolver.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "objectives/translate.hpp"
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

// A WEIGHT that fits an int but not after the x1000 objective scale is
// refused with kInvalidInput naming the objective; wrapped in 32 bits,
// 4294968 would weigh 704, less than WEIGHT 1.
TEST(Aed, ObjectiveWeightThatOverflowsItsScaleIsInvalidInput) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const auto objectives =
      parseObjectives("NOMODIFY //Router[name=\"B\"] WEIGHT 4294968");
  try {
    synthesize(tree, figure1AllPolicies(), objectives);
    FAIL() << "expected kInvalidInput";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << e.what();
    EXPECT_NE(std::string(e.what()).find("WEIGHT 4294968"), std::string::npos)
        << e.what();
  }
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

struct Scenario {
  ConfigTree tree;
  PolicySet policies;
};

/// bench_simulator's dc8 repair scenario: two racks' host subnets withdrawn.
Scenario withdrawnRacks() {
  DcParams params;
  params.racks = 5;
  params.aggs = 2;
  params.spines = 1;
  params.blockedPairFraction = 0.0;
  params.seed = 29;
  GeneratedNetwork net = generateDatacenter(params);
  PolicySet policies = makeWithdrawnSubnetUpdate(net, "rack0");
  makeWithdrawnSubnetUpdate(net, "rack1");
  return {std::move(net.tree), std::move(policies)};
}

/// Two forced rejections: three validation rounds before the run converges.
AedOptions rejectTwice() {
  AedOptions options;
  options.maxRepairIterations = 5;
  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = 2;
  return options;
}

// stats.simulate sums the engines of every validation round. On
// bench_simulator's repair scenario each round builds a fresh engine on a
// tree with the same destinations and sources, so two forced rejections
// (three validations) give exactly three times the hits and misses of a run
// that validates once.
TEST(Aed, SimulateStatsSumEveryRound) {
  const Scenario scenario = withdrawnRacks();

  AedOptions options;
  options.maxRepairIterations = 5;
  const AedResult once =
      synthesize(scenario.tree, scenario.policies, {}, options);
  ASSERT_TRUE(once.success) << once.error;
  ASSERT_EQ(once.stats.repairRounds, 0u);

  const AedResult thrice =
      synthesize(scenario.tree, scenario.policies, {}, rejectTwice());
  ASSERT_TRUE(thrice.success) << thrice.error;
  ASSERT_EQ(thrice.stats.repairRounds, 2u);

  const SimCacheStats& one = once.stats.simulate;
  const SimCacheStats& three = thrice.stats.simulate;
  EXPECT_GT(one.routeMisses, 0u);
  EXPECT_EQ(three.routeHits, 3 * one.routeHits);
  EXPECT_EQ(three.routeMisses, 3 * one.routeMisses);
}

// The solver work counts every solve of every round, not only each group's
// last one: it covers the run's own sketch, encode, solve and extract phase
// sums, and it is the sum of the per-subproblem seconds.
TEST(Aed, SubproblemSecondsCoverEveryRound) {
  const Scenario scenario = withdrawnRacks();
  const AedResult result =
      synthesize(scenario.tree, scenario.policies, {}, rejectTwice());
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_EQ(result.stats.repairRounds, 2u);

  const AedStats& stats = result.stats;
  const auto solverPhases = [](const PhaseBreakdown& phases) {
    return phases.total() - phases.simulateSeconds;
  };
  EXPECT_GE(stats.sumSubproblemSeconds,
            solverPhases(stats.firstRound) + solverPhases(stats.repair));
  double reported = 0.0;
  for (const SubproblemReport& sub : result.subproblems) {
    reported += sub.seconds;
  }
  EXPECT_NEAR(stats.sumSubproblemSeconds, reported, 1e-9);
}

/// A dc8 update: 4 reachability policies added to a fabric with half its
/// rack pairs blocked.
Scenario dc8Update() {
  DcParams params;
  params.racks = 5;
  params.aggs = 2;
  params.spines = 1;
  params.blockedPairFraction = 0.5;
  params.seed = 5;
  GeneratedNetwork net = generateDatacenter(params);
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 4, 42);
  EXPECT_EQ(update.added.size(), 4u);
  PolicySet policies = update.base;
  policies.insert(policies.end(), update.added.begin(), update.added.end());
  return {std::move(net.tree), std::move(policies)};
}

/// Runs synthesize() with the tracer on; returns the result and the closed
/// spans.
std::pair<AedResult, std::vector<TraceEvent>> tracedSynthesize(
    const Scenario& scenario, const AedOptions& options) {
  Tracer::clear();
  Tracer::enable();
  AedResult result = synthesize(scenario.tree, scenario.policies, {}, options);
  Tracer::disable();
  std::vector<TraceEvent> events = Tracer::collect();
  Tracer::clear();
  return {std::move(result), std::move(events)};
}

// Every second of a call sits in a top-level phase span: on a fixed dc8
// update, the direct children of aed.synthesize cover at least 95% of it,
// and the solver teardown is one of them. (Kept out of obs_test, whose
// replaced global operator new trips ASan inside the uninstrumented libz3
// on this scenario.)
TEST(Aed, TopLevelSpansCoverTheWholeCall) {
  AedOptions options;
  options.workers = 2;
  const auto [result, events] = tracedSynthesize(dc8Update(), options);
  ASSERT_TRUE(result.success) << result.error;

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

// Each repair round blames once: the two forced rejections of the dc8
// repair scenario open exactly two aed.blame spans, each naming what it
// blocked.
TEST(Aed, EachRepairRoundOpensOneBlameSpan) {
  const auto [result, events] =
      tracedSynthesize(withdrawnRacks(), rejectTwice());
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_EQ(result.stats.repairRounds, 2u);
  std::size_t blames = 0;
  for (const TraceEvent& event : events) {
    if (std::string("aed.blame") != event.name) continue;
    ++blames;
    EXPECT_NE(event.detail.find("violated="), std::string::npos);
    EXPECT_NE(event.detail.find(" groups="), std::string::npos);
    EXPECT_NE(event.detail.find(" fallback="), std::string::npos);
    EXPECT_NE(event.detail.find(" blocked="), std::string::npos);
  }
  EXPECT_EQ(blames, result.stats.repairRounds);
}

/// Spans named `name` per parent span name.
std::map<std::string, std::size_t> countUnder(
    const std::vector<TraceEvent>& events, const std::string& name) {
  std::map<std::uint64_t, std::string> names;
  for (const TraceEvent& event : events) names[event.id] = event.name;
  std::map<std::string, std::size_t> under;
  for (const TraceEvent& event : events) {
    if (name == event.name) ++under[names[event.parent]];
  }
  return under;
}

// finish() is the only place a persistent solver is freed: every
// subsolver.free span sits under aed.teardown, none under a subproblem, even
// for a solver no repair round can pick. Of the dc8 update's 5 groups, 1 is
// already satisfied by the input and builds no solver, so the teardown frees
// the other 4. Demanding that one added reachability class also be blocked
// makes its group unsat: that solver is dead after its solve, and the
// teardown still frees all 4. (The test's name predates this contract.)
TEST(Aed, DeadSolversAreFreedInsideTheirSubproblem) {
  AedOptions options;
  options.workers = 2;
  Scenario scenario = dc8Update();
  {
    const auto [result, events] = tracedSynthesize(scenario, options);
    ASSERT_TRUE(result.success) << result.error;
    ASSERT_EQ(result.stats.subproblems, 5u);
    ASSERT_EQ(result.stats.repairRounds, 0u);
    const auto freesUnder = countUnder(events, "subsolver.free");
    EXPECT_EQ(freesUnder.size(), 1u);
    EXPECT_EQ(freesUnder.at("aed.teardown"), 4u);
  }

  scenario.policies.push_back(Policy::blocking(scenario.policies.back().cls));
  const auto [result, events] = tracedSynthesize(scenario, options);
  ASSERT_FALSE(result.success);
  ASSERT_EQ(result.errorCode, ErrorCode::kUnsat) << result.error;
  const auto freesUnder = countUnder(events, "subsolver.free");
  EXPECT_EQ(freesUnder.size(), 1u);
  EXPECT_EQ(freesUnder.at("aed.teardown"), 4u);
}

/// Index of the one dc8 update group the input already satisfies, per the
/// serial oracle.
std::size_t satisfiedGroup(const Scenario& scenario,
                           const AedResult& result) {
  const Simulator input(scenario.tree);
  std::vector<std::size_t> satisfied;
  for (const SubproblemReport& report : result.subproblems) {
    PolicySet group;
    for (const Policy& policy : scenario.policies) {
      if (policy.cls.dst.str() == report.destination) group.push_back(policy);
    }
    if (input.violations(group).empty()) satisfied.push_back(report.index);
  }
  EXPECT_EQ(satisfied.size(), 1u);
  return satisfied.empty() ? 0 : satisfied.front();
}

// A group the input already satisfies is answered without a solver: the
// dc8 update's 5 groups run 4 solves, and the input check is a phase of the
// call.
TEST(Aed, InputSatisfiedGroupBuildsNoSolver) {
  AedOptions options;
  options.workers = 2;
  const auto [result, events] = tracedSynthesize(dc8Update(), options);
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_EQ(result.stats.subproblems, 5u);
  const auto solves = countUnder(events, "subsolver.solve");
  EXPECT_EQ(solves.at("aed.subproblem"), 4u);
  EXPECT_EQ(solves.size(), 1u);
  EXPECT_EQ(countUnder(events, "aed.input_check").at("aed.synthesize"), 1u);
  EXPECT_EQ(result.stats.rungCounts[static_cast<std::size_t>(
                SolveRung::kFull)],
            4u);
}

// Its report says so: rung "none", no solver effort, and a reason.
TEST(Aed, InputSatisfiedGroupReportsWhy) {
  const Scenario scenario = dc8Update();
  const AedResult result = synthesize(scenario.tree, scenario.policies);
  ASSERT_TRUE(result.success) << result.error;
  const SubproblemReport& report =
      result.subproblems.at(satisfiedGroup(scenario, result));
  EXPECT_EQ(report.outcome, SubOutcome::kOk);
  EXPECT_EQ(report.rung, SolveRung::kNone);
  EXPECT_NE(report.rungReason.find("input satisfied"), std::string::npos)
      << report.rungReason;
  EXPECT_EQ(report.solverStats.checks, 0u);
  EXPECT_EQ(report.solverStats.conflicts, 0u);
  EXPECT_EQ(report.solverStats.decisions, 0u);
  EXPECT_EQ(report.solverStats.vars, 0u);
  EXPECT_EQ(report.solverStats.assertions, 0u);
  for (const SubproblemReport& other : result.subproblems) {
    if (other.index == report.index) continue;
    EXPECT_EQ(other.rung, SolveRung::kFull) << other.destination;
  }
}

// The skip's premise, checked against the real encoder: solving the
// satisfied group with its own destination-scoped solver gives the empty
// patch with every objective met, under the same labels the skip reports.
// And a run that is made to solve that group (a zero-length injected delay
// poisons it) returns the same patch, labels and delta count.
TEST(Aed, InputSatisfiedGroupMatchesItsSolve) {
  const Scenario scenario = dc8Update();
  const std::vector<Objective> objectives = objectivesMinDevices();
  const AedResult skipped =
      synthesize(scenario.tree, scenario.policies, objectives);
  ASSERT_TRUE(skipped.success) << skipped.error;
  const std::size_t index = satisfiedGroup(scenario, skipped);
  ASSERT_EQ(skipped.subproblems[index].rung, SolveRung::kNone);

  PolicySet group;
  for (const Policy& policy : scenario.policies) {
    if (policy.cls.dst.str() == skipped.subproblems[index].destination) {
      group.push_back(policy);
    }
  }
  AedOptions scoped;
  scoped.sketch.destinationScoped = true;
  const Topology topo = Topology::fromConfigs(scenario.tree);
  SubproblemSolver solver(scenario.tree, topo, group, objectives, scoped);
  const SubResult solved = solver.solve({}, Deadline::unlimited());
  ASSERT_EQ(solved.outcome, SubOutcome::kOk) << solved.detail;
  EXPECT_EQ(solved.rung, SolveRung::kFull);
  EXPECT_TRUE(solved.patch.empty()) << solved.patch.describe();
  EXPECT_TRUE(solved.activeDeltas.empty());
  EXPECT_TRUE(solved.violated.empty());
  std::vector<std::string> labels = objectiveLabels(
      buildSketch(scenario.tree, topo, group, scoped.sketch), objectives);
  std::vector<std::string> satisfied = solved.satisfied;
  std::sort(labels.begin(), labels.end());
  std::sort(satisfied.begin(), satisfied.end());
  EXPECT_FALSE(labels.empty());
  EXPECT_EQ(satisfied, labels);
  // The run reports each of them, as violated when another group's patch
  // touches that router.
  for (const std::string& label : labels) {
    const auto reports = [&label](const std::vector<std::string>& list) {
      return std::binary_search(list.begin(), list.end(), label);
    };
    EXPECT_TRUE(reports(skipped.satisfiedObjectives) ||
                reports(skipped.violatedObjectives))
        << label;
  }

  AedOptions poison;
  poison.faultInjection.kind = FaultInjection::Kind::kDelay;
  poison.faultInjection.delayMs = 0;
  poison.faultInjection.subproblem = static_cast<int>(index);
  const AedResult forced =
      synthesize(scenario.tree, scenario.policies, objectives, poison);
  ASSERT_TRUE(forced.success) << forced.error;
  EXPECT_EQ(forced.subproblems[index].rung, SolveRung::kFull);
  EXPECT_EQ(forced.patch.describe(), skipped.patch.describe());
  EXPECT_EQ(forced.satisfiedObjectives, skipped.satisfiedObjectives);
  EXPECT_EQ(forced.violatedObjectives, skipped.violatedObjectives);
  EXPECT_EQ(forced.stats.deltaCount, skipped.stats.deltaCount);
}

// Where the empty patch is not known to be the optimum, or a fault is aimed
// at the group, every group is solved: an ELIMINATE objective, the
// minimality softs off (the NetComplete baseline), and fault injection
// poisoning the satisfied group.
TEST(Aed, EveryGroupSolvesWhenTheSkipIsNotExact) {
  const Scenario scenario = dc8Update();
  const AedResult plain = synthesize(scenario.tree, scenario.policies);
  ASSERT_TRUE(plain.success) << plain.error;
  const std::size_t index = satisfiedGroup(scenario, plain);

  const auto expectAllSolved = [&](const std::string& label,
                                   const std::vector<Objective>& objectives,
                                   const AedOptions& options) {
    SCOPED_TRACE(label);
    const AedResult result =
        synthesize(scenario.tree, scenario.policies, objectives, options);
    ASSERT_EQ(result.subproblems.size(), 5u);
    for (const SubproblemReport& report : result.subproblems) {
      EXPECT_NE(report.rung, SolveRung::kNone) << report.destination;
      EXPECT_GE(report.solverStats.checks, 1u) << report.destination;
    }
  };
  expectAllSolved("eliminate", objectivesAvoidStaticRoutes(), {});
  AedOptions noMinimality;
  noMinimality.defaultMinimality = false;
  expectAllSolved("no minimality", {}, noMinimality);
  AedOptions unknown;
  unknown.faultInjection.kind = FaultInjection::Kind::kUnknown;
  unknown.faultInjection.subproblem = static_cast<int>(index);
  expectAllSolved("unknown injected", {}, unknown);
  AedOptions delay;
  delay.faultInjection.kind = FaultInjection::Kind::kDelay;
  delay.faultInjection.delayMs = 0;
  delay.faultInjection.subproblem = static_cast<int>(index);
  expectAllSolved("delay injected", objectivesMinDevices(), delay);
}

}  // namespace
}  // namespace aed
