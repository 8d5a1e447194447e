// Bounded in-process fuzz sweeps: a small clean sweep must stay clean, the
// wall-clock budget must be honored, an injected fault must surface as a
// minimized failure with a replayable repro, and the JSON report must carry
// the sweep's accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/fuzz.hpp"
#include "check/repro.hpp"
#include "fixtures.hpp"

namespace aed::check {
namespace {

TEST(FuzzSmokeTest, SmallSweepIsClean) {
  FuzzOptions options;
  options.seedStart = aed::testing::testSeed(1);
  options.seedCount = 12;
  options.expensiveEvery = 6;
  const FuzzReport report = runFuzz(options);
  EXPECT_TRUE(report.clean())
      << (report.failures.empty() ? std::string()
                                  : report.failures[0].failure.detail);
  EXPECT_EQ(report.seedsRun, 12u);
  EXPECT_EQ(report.seedStart, options.seedStart);
  EXPECT_GT(report.invariantChecks, 0u);
  EXPECT_FALSE(report.budgetExhausted);
  // Per-invariant accounting adds up to the total.
  std::size_t sum = 0;
  for (const auto& [name, count] : report.checksByInvariant) sum += count;
  EXPECT_EQ(sum, report.invariantChecks);
  // The expensive invariants ran on the every-6th subset only.
  EXPECT_EQ(report.checksByInvariant.at("incremental-equiv"), 2u);
  EXPECT_EQ(report.checksByInvariant.at("frozen-align"), 2u);
  EXPECT_EQ(report.checksByInvariant.at("journal-rollback"), 12u);
}

TEST(FuzzSmokeTest, BudgetStopsTheSweep) {
  FuzzOptions options;
  options.seedCount = 1000000;  // would run for hours without the budget
  options.budgetSeconds = 0.5;
  const FuzzReport report = runFuzz(options);
  EXPECT_TRUE(report.budgetExhausted);
  EXPECT_LT(report.seedsRun, options.seedCount);
}

TEST(FuzzSmokeTest, InjectedFaultIsDetectedShrunkAndReplayable) {
  FuzzOptions options;
  options.seedStart = 2;
  options.seedCount = 1;
  options.inject = parseFaultSpec("stage-commit");
  options.invariants = kCheapInvariants;
  const FuzzReport report = runFuzz(options);
  ASSERT_EQ(report.failures.size(), 1u);

  const FuzzFailure& failure = report.failures[0];
  EXPECT_EQ(failure.seed, 2u);
  EXPECT_EQ(std::string(invariantName(failure.failure.invariant)),
            "staged-oneshot");
  EXPECT_LE(failure.shrinkStats.routersAfter, 4u);
  EXPECT_LE(failure.shrinkStats.policiesAfter, 3u);

  // The emitted repro parses and replays the same failure.
  const Repro repro = parseRepro(failure.repro);
  const CheckOutcome replay = checkScenario(repro.scenario, repro.invariants);
  ASSERT_FALSE(replay.passed());
  EXPECT_EQ(replay.failures[0].invariant, failure.failure.invariant);
  EXPECT_EQ(replay.failures[0].category, failure.failure.category);
}

TEST(FuzzSmokeTest, JsonReportCarriesTheSweep) {
  FuzzOptions options;
  options.seedStart = 9;
  options.seedCount = 2;
  options.invariants = kCheapInvariants;
  const FuzzReport report = runFuzz(options);
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"seedStart\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"seedsRun\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"journal-rollback\""), std::string::npos);
  EXPECT_NE(json.find("\"failures\": []"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(FuzzSmokeTest, NoShrinkKeepsTheOriginalScenario) {
  FuzzOptions options;
  options.seedStart = 3;
  options.seedCount = 1;
  options.inject = parseFaultSpec("stage-commit");
  options.invariants = mask(Invariant::kStagedVsOneShot);
  options.shrink = false;
  const FuzzReport report = runFuzz(options);
  ASSERT_EQ(report.failures.size(), 1u);
  const FuzzFailure& failure = report.failures[0];
  EXPECT_EQ(failure.shrinkStats.attempts, 0u);
  // The unminimized scenario is the generated one.
  EXPECT_EQ(failure.minimized.label, makeScenario(3).label);
}

}  // namespace
}  // namespace aed::check
