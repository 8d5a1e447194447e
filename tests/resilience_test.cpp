// Resilience layer: deadlines, anytime degradation and fault-isolated
// parallel solving. Uses AedOptions::faultInjection to deterministically
// poison one subproblem and proves the siblings survive.

#include <gtest/gtest.h>

#include <atomic>

#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "simulate/simulator.hpp"
#include "util/deadline.hpp"
#include "util/parallel.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

PolicySet figure1AllPolicies() {
  return {aed::testing::figure1P1(), aed::testing::figure1P2(),
          aed::testing::figure1P3()};
}

// The figure-1 policy set decomposes into multiple destination groups; find
// the report for a given outcome.
const SubproblemReport* findOutcome(const AedResult& result,
                                    SubOutcome outcome) {
  for (const SubproblemReport& report : result.subproblems) {
    if (report.outcome == outcome) return &report;
  }
  return nullptr;
}

std::size_t countOutcome(const AedResult& result, SubOutcome outcome) {
  std::size_t n = 0;
  for (const SubproblemReport& report : result.subproblems) {
    if (report.outcome == outcome) ++n;
  }
  return n;
}

// --------------------------------------------------------------- Deadline

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline d = Deadline::unlimited();
  EXPECT_TRUE(d.isUnlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remainingMillis(), Deadline::kForeverMs);
}

TEST(Deadline, ZeroBudgetIsExpired) {
  const Deadline d = Deadline::after(0);
  EXPECT_FALSE(d.isUnlimited());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remainingMillis(), 0u);
}

TEST(Deadline, CountsDown) {
  const Deadline d = Deadline::after(60000);
  EXPECT_FALSE(d.expired());
  const std::uint64_t remaining = d.remainingMillis();
  EXPECT_GT(remaining, 0u);
  EXPECT_LE(remaining, 60000u);
}

// Budgets past the nanosecond clock's range are capped, not overflowed.
TEST(Deadline, HugeBudgetIsNotExpired) {
  for (const std::uint64_t ms :
       {UINT64_MAX, std::uint64_t{10'000'000'000'000}}) {
    const Deadline d = Deadline::after(ms);
    EXPECT_FALSE(d.expired()) << ms;
    EXPECT_GT(d.remainingMillis(), 0u) << ms;
  }
}

TEST(Deadline, MinPicksEarlier) {
  const Deadline near = Deadline::after(10);
  const Deadline far = Deadline::after(60000);
  EXPECT_LE(near.min(far).remainingMillis(), near.remainingMillis());
  EXPECT_LE(far.min(near).remainingMillis(), near.remainingMillis());
  EXPECT_FALSE(Deadline::unlimited().min(near).isUnlimited());
  EXPECT_FALSE(near.min(Deadline::unlimited()).isUnlimited());
}

// ------------------------------------------------------------ runParallel

TEST(ThreadPool, ExceptionCarryingTaskDoesNotPoisonSiblings) {
  std::atomic<int> completed{0};
  EXPECT_THROW(runParallel(16, 4,
                           [&completed](std::size_t i) {
                             if (i == 5) {
                               throw std::runtime_error("task 5 exploded");
                             }
                             ++completed;
                           }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
}

// --------------------------------------------------- fault-isolated solving

TEST(Resilience, ThrowingSubproblemDoesNotAbortSiblings) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  AedOptions options;
  options.faultInjection.kind = FaultInjection::Kind::kThrow;
  options.faultInjection.subproblem = 0;
  const AedResult result = synthesize(tree, policies, {}, options);

  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.degraded);
  ASSERT_GE(result.subproblems.size(), 2u);
  const SubproblemReport* failed = findOutcome(result, SubOutcome::kError);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->index, 0u);
  EXPECT_EQ(failed->code, ErrorCode::kSubproblemFailed);
  EXPECT_NE(failed->detail.find("fault injection"), std::string::npos);
  EXPECT_EQ(countOutcome(result, SubOutcome::kOk),
            result.subproblems.size() - 1);
  EXPECT_EQ(result.stats.failedSubproblems, 1u);

  // The survivors' policies hold on the returned tree.
  Simulator sim(result.updated);
  for (const Policy& policy : policies) {
    const SubproblemReport& own = result.subproblems[0];
    if (policy.cls.dst.str() == own.destination) continue;  // poisoned group
    EXPECT_TRUE(sim.checkPolicy(policy)) << policy.str();
  }
}

TEST(Resilience, UnknownVerdictFallsDownDegradationLadder) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  AedOptions options;
  options.faultInjection.kind = FaultInjection::Kind::kUnknown;
  options.faultInjection.subproblem = 0;
  const AedResult result = synthesize(tree, policies, {}, options);

  // The poisoned subproblem's search stops before its total-cost step; the
  // lower rungs (the user optimum's model, else one plain check) still
  // produce a valid model, so the subproblem lands on "degraded" rather
  // than failing.
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.degraded);
  const SubproblemReport* degraded = findOutcome(result, SubOutcome::kDegraded);
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->index, 0u);
  EXPECT_NE(degraded->detail.find("degraded"), std::string::npos);
  EXPECT_EQ(result.stats.degradedSubproblems, 1u);
  EXPECT_EQ(result.stats.failedSubproblems, 0u);

  // Degraded still means policy-compliant: every policy holds.
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(Resilience, DelayInjectionStillSolvesEverything) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  AedOptions options;
  options.faultInjection.kind = FaultInjection::Kind::kDelay;
  options.faultInjection.subproblem = 0;
  options.faultInjection.delayMs = 30;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(countOutcome(result, SubOutcome::kOk), result.subproblems.size());
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

// ------------------------------------------------------------- time budgets

TEST(Resilience, OneMillisecondBudgetDegradesInsteadOfHanging) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  AedOptions options;
  options.timeBudgetMs = 1;
  const AedResult result = synthesize(tree, policies, {}, options);

  // Either the tiny problems solved inside the budget, or the run reports an
  // explicit timeout — it must not hang or throw, and any patch returned
  // must be policy-compliant for the destinations it claims.
  if (result.success) {
    Simulator sim(result.updated);
    for (const SubproblemReport& report : result.subproblems) {
      if (report.outcome != SubOutcome::kOk &&
          report.outcome != SubOutcome::kDegraded) {
        continue;
      }
      for (const Policy& policy : policies) {
        if (policy.cls.dst.str() != report.destination) continue;
        EXPECT_TRUE(sim.checkPolicy(policy)) << policy.str();
      }
    }
  } else {
    EXPECT_EQ(result.errorCode, ErrorCode::kTimeout);
    EXPECT_EQ(countOutcome(result, SubOutcome::kTimedOut),
              result.subproblems.size());
  }
}

TEST(Resilience, GenerousBudgetSolvesNormally) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  AedOptions options;
  options.timeBudgetMs = 60000;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_FALSE(result.degraded);
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

// --------------------------------------------------------- degradation order

TEST(Resilience, LadderPrefersUserObjectivesOverMinimality) {
  // Force an unknown on the monolithic problem (one subproblem) with user
  // objectives present: the search has proved the user-objective optimum
  // before it stops, so the degraded result must still report them.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P3()};
  const auto objectives = parseObjectives("NOMODIFY //Router[name=\"A\"]");
  AedOptions options;
  options.perDestination = false;
  options.faultInjection.kind = FaultInjection::Kind::kUnknown;
  options.faultInjection.subproblem = 0;
  const AedResult result = synthesize(tree, policies, objectives, options);

  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.degraded);
  ASSERT_EQ(result.subproblems.size(), 1u);
  EXPECT_EQ(result.subproblems[0].outcome, SubOutcome::kDegraded);
  // The no-minimality rung (user optimum kept) answers before hard-only:
  // with objectives present the detail names the softer rung.
  EXPECT_NE(result.subproblems[0].detail.find("minimality softs dropped"),
            std::string::npos)
      << result.subproblems[0].detail;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(Resilience, LadderFallsToHardOnlyWithoutUserObjectives) {
  // No user objectives: there is no user optimum to keep, so the search
  // answers with one plain check over the hard constraints.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P3()};
  AedOptions options;
  options.perDestination = false;
  options.faultInjection.kind = FaultInjection::Kind::kUnknown;
  options.faultInjection.subproblem = 0;
  const AedResult result = synthesize(tree, policies, {}, options);

  ASSERT_TRUE(result.success) << result.error;
  ASSERT_EQ(result.subproblems.size(), 1u);
  EXPECT_EQ(result.subproblems[0].outcome, SubOutcome::kDegraded);
  EXPECT_NE(result.subproblems[0].detail.find("hard constraints only"),
            std::string::npos)
      << result.subproblems[0].detail;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

// ----------------------------------------------------------- outcome report

TEST(Resilience, ReportCoversEverySubproblem) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.subproblems.size(), result.stats.subproblems);
  for (std::size_t i = 0; i < result.subproblems.size(); ++i) {
    EXPECT_EQ(result.subproblems[i].index, i);
    EXPECT_FALSE(result.subproblems[i].destination.empty());
    EXPECT_GT(result.subproblems[i].policyCount, 0u);
    EXPECT_EQ(result.subproblems[i].outcome, SubOutcome::kOk);
    EXPECT_EQ(result.subproblems[i].code, ErrorCode::kNone);
  }
}

TEST(Resilience, OutcomeNamesAreStable) {
  EXPECT_STREQ(subOutcomeName(SubOutcome::kOk), "ok");
  EXPECT_STREQ(subOutcomeName(SubOutcome::kDegraded), "degraded");
  EXPECT_STREQ(subOutcomeName(SubOutcome::kTimedOut), "timed_out");
  EXPECT_STREQ(subOutcomeName(SubOutcome::kUnsat), "unsat");
  EXPECT_STREQ(subOutcomeName(SubOutcome::kError), "error");
  EXPECT_STREQ(errorCodeName(ErrorCode::kNone), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::kTimeout), "timeout");
}

}  // namespace
}  // namespace aed
