// Tests for the fuzz-harness core: scenario generation determinism, the
// invariant checker on known-good and edge-case inputs, and repro-file
// round-trips.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/invariants.hpp"
#include "check/repro.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "policy/parse.hpp"
#include "util/error.hpp"

namespace aed::check {
namespace {

using aed::testing::testSeed;

std::string scenarioFingerprint(const Scenario& scenario) {
  return scenario.label + "\n" + printPolicies(scenario.policies) + "\n" +
         printNetworkConfig(scenario.tree);
}

TEST(ScenarioTest, SameSeedSameScenario) {
  const std::uint64_t seed = testSeed(17);
  const Scenario a = makeScenario(seed);
  const Scenario b = makeScenario(seed);
  EXPECT_EQ(scenarioFingerprint(a), scenarioFingerprint(b));
}

TEST(ScenarioTest, DifferentSeedsDiverge) {
  // Not every pair differs, but across a handful of seeds the generator
  // must not collapse to a single scenario.
  std::set<std::string> fingerprints;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fingerprints.insert(scenarioFingerprint(makeScenario(seed)));
  }
  EXPECT_GT(fingerprints.size(), 3u);
}

TEST(ScenarioTest, CloneIsDeep) {
  const Scenario original = makeScenario(3);
  Scenario copy = original.clone();
  copy.policies.clear();
  copy.tree.root().children().front()->setAttr("name", "mutated");
  EXPECT_NE(scenarioFingerprint(original), scenarioFingerprint(copy));
  EXPECT_EQ(scenarioFingerprint(original),
            scenarioFingerprint(makeScenario(3)));
}

TEST(InvariantNamesTest, RoundTrip) {
  for (const Invariant inv : allInvariants()) {
    const auto back = invariantFromName(invariantName(inv));
    ASSERT_TRUE(back.has_value()) << invariantName(inv);
    EXPECT_EQ(*back, inv);
  }
  EXPECT_FALSE(invariantFromName("no-such-invariant").has_value());
  EXPECT_EQ(invariantFromName("frozen-align"), Invariant::kFrozenAlign);
  EXPECT_EQ(kCheapInvariants & mask(Invariant::kFrozenAlign), 0u);
}

TEST(InvariantNamesTest, MaskStrings) {
  EXPECT_EQ(invariantMaskToString(kAllInvariants), "all");
  EXPECT_EQ(invariantMaskFromString("all"), kAllInvariants);
  EXPECT_EQ(invariantMaskFromString("cheap"), kCheapInvariants);
  const InvariantMask two =
      mask(Invariant::kSynthSound) | mask(Invariant::kJournalRollback);
  EXPECT_EQ(invariantMaskFromString(invariantMaskToString(two)), two);
  EXPECT_THROW(invariantMaskFromString("synth-sound,bogus"), AedError);
  EXPECT_THROW(invariantMaskFromString(""), AedError);
}

TEST(CheckScenarioTest, CleanSeedsPassCheapInvariants) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Scenario scenario = makeScenario(seed);
    const CheckOutcome outcome = checkScenario(scenario, kCheapInvariants);
    EXPECT_TRUE(outcome.passed())
        << "seed " << seed << ": "
        << (outcome.failures.empty() ? "" : outcome.failures[0].detail);
    EXPECT_EQ(outcome.checked, kCheapInvariants);
  }
}

TEST(CheckScenarioTest, AllInvariantsPassOnOneSeed) {
  const Scenario scenario = makeScenario(testSeed(5));
  const CheckOutcome outcome = checkScenario(scenario, kAllInvariants);
  EXPECT_TRUE(outcome.passed())
      << (outcome.failures.empty() ? "" : outcome.failures[0].detail);
  EXPECT_TRUE(outcome.synthesized);
}

TEST(CheckScenarioTest, Figure1PassesCheapInvariants) {
  Scenario scenario;
  scenario.label = "figure1";
  scenario.tree = parseNetworkConfig(aed::testing::figure1ConfigText());
  scenario.policies = {aed::testing::figure1P1(), aed::testing::figure1P2(),
                       aed::testing::figure1P3()};
  const CheckOutcome outcome = checkScenario(scenario, kCheapInvariants);
  EXPECT_TRUE(outcome.passed())
      << (outcome.failures.empty() ? "" : outcome.failures[0].detail);
  EXPECT_TRUE(outcome.synthesized);
  EXPECT_GT(outcome.patchEdits, 0u);
}

// Edge case: a scenario whose embedded patch is empty — every apply-layer
// invariant must hold trivially rather than crash or misreport. (The
// policies must already hold: an empty patch on a violated network is a
// genuine synth-sound failure, which the checker rightly reports.)
TEST(CheckScenarioTest, EmptyEmbeddedPatch) {
  Scenario scenario = makeScenario(2);
  scenario.policies.clear();
  scenario.patch = Patch{};
  const CheckOutcome outcome = checkScenario(scenario, kCheapInvariants);
  EXPECT_TRUE(outcome.passed())
      << (outcome.failures.empty() ? "" : outcome.failures[0].detail);
  EXPECT_EQ(outcome.patchEdits, 0u);
}

// And the checker *does* flag an empty patch that leaves policies violated
// — the harness must be able to see real soundness bugs.
TEST(CheckScenarioTest, EmptyPatchOnViolatedNetworkFailsSynthSound) {
  Scenario scenario = makeScenario(2);
  scenario.patch = Patch{};
  const CheckOutcome outcome =
      checkScenario(scenario, mask(Invariant::kSynthSound));
  ASSERT_FALSE(outcome.passed());
  EXPECT_EQ(outcome.failures[0].invariant, Invariant::kSynthSound);
}

// Edge case: a single-router network with a policy that is already
// satisfied — the pipeline must handle the no-link topology.
TEST(CheckScenarioTest, SingleRouterNetwork) {
  Scenario scenario;
  scenario.label = "single-router";
  scenario.tree = parseNetworkConfig(
      "hostname solo\n"
      "interface hosts\n"
      " ip address 9.0.0.1/16\n"
      "router bgp 65001\n"
      " network 9.0.0.0/16\n");
  scenario.policies = {
      Policy::reachability(aed::testing::cls("9.0.0.0/16", "9.0.0.0/16"))};
  const CheckOutcome outcome = checkScenario(scenario, kCheapInvariants);
  EXPECT_TRUE(outcome.passed())
      << (outcome.failures.empty() ? "" : outcome.failures[0].detail);
}

// Edge case: an unsatisfiable-from-the-start policy set (reachability and
// blocking over the same traffic class). Not an invariant violation: the
// checker must report "unsat" and skip patch-dependent invariants.
TEST(CheckScenarioTest, UnsatFromStartIsNotAFailure) {
  Scenario scenario;
  scenario.label = "unsat";
  scenario.tree = parseNetworkConfig(aed::testing::figure1ConfigText());
  scenario.policies = {aed::testing::figure1P3(),
                       Policy::blocking(
                           aed::testing::cls("3.0.0.0/16", "2.0.0.0/16"))};
  const CheckOutcome outcome = checkScenario(scenario, kCheapInvariants);
  EXPECT_TRUE(outcome.passed())
      << (outcome.failures.empty() ? "" : outcome.failures[0].detail);
  EXPECT_EQ(outcome.note, "unsat");
  EXPECT_FALSE(outcome.synthesized);
  EXPECT_NE(outcome.skipped, 0u);
}

// An unsat policy set must stay unsat under incremental-equiv's fresh
// re-solve (the divergence check itself is exercised here).
TEST(CheckScenarioTest, UnsatAgreesWithFreshSolve) {
  Scenario scenario;
  scenario.label = "unsat";
  scenario.tree = parseNetworkConfig(aed::testing::figure1ConfigText());
  scenario.policies = {aed::testing::figure1P3(),
                       Policy::blocking(
                           aed::testing::cls("3.0.0.0/16", "2.0.0.0/16"))};
  const CheckOutcome outcome =
      checkScenario(scenario, mask(Invariant::kIncrementalEquiv));
  EXPECT_TRUE(outcome.passed())
      << (outcome.failures.empty() ? "" : outcome.failures[0].detail);
}

// A policy whose source is attached nowhere makes synthesize() throw. The
// checker reports the throw as a synth-sound failure instead of passing it
// on, and the shrinker, whose reduced candidates can throw too, finishes.
TEST(CheckScenarioTest, ThrowingSynthesisIsAFailureTheShrinkerFinishes) {
  Scenario scenario;
  scenario.label = "figure1 plus an unattached source";
  scenario.tree = parseNetworkConfig(aed::testing::figure1ConfigText());
  scenario.policies = {
      aed::testing::figure1P1(), aed::testing::figure1P2(),
      aed::testing::figure1P3(),
      Policy::reachability(aed::testing::cls("99.0.0.0/16", "2.0.0.0/16"))};
  CheckOutcome outcome;
  ASSERT_NO_THROW(outcome = checkScenario(scenario, kCheapInvariants));
  ASSERT_EQ(outcome.failures.size(), 1u);
  const InvariantFailure& failure = outcome.failures[0];
  EXPECT_EQ(failure.invariant, Invariant::kSynthSound);
  EXPECT_EQ(failure.category, "exception");
  EXPECT_NE(failure.detail.find("no source attachment"), std::string::npos)
      << failure.detail;
  EXPECT_FALSE(outcome.synthesized);

  ShrinkResult shrunk;
  ASSERT_NO_THROW(shrunk = shrinkScenario(scenario, failure));
  EXPECT_EQ(shrunk.failure.category, "exception");
  EXPECT_LT(shrunk.stats.policiesAfter, shrunk.stats.policiesBefore);
}

// Edge case: journal rollback restores the bit-identical tree when the
// apply aborts at *every* edit index of a real synthesized patch.
TEST(JournalEdgeCaseTest, RollbackAtEveryEditIndex) {
  // Find a generated scenario whose patch has at least two edits so the
  // mid-patch indices are actually exercised.
  Patch patch;
  Scenario scenario;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    scenario = makeScenario(seed);
    const AedResult result =
        synthesize(scenario.tree, scenario.policies, {}, scenario.options());
    if (result.success && !result.degraded && result.patch.size() >= 2) {
      patch = result.patch;
      break;
    }
  }
  ASSERT_GE(patch.size(), 2u) << "no seed in 1..10 produced a 2-edit patch";

  const std::string before = printNetworkConfig(scenario.tree);
  for (std::size_t failAt = 0; failAt < patch.size(); ++failAt) {
    ConfigTree working = scenario.tree.clone();
    ApplyJournal journal;
    EXPECT_THROW(
        patch.applyJournaled(working, journal,
                             [&](std::size_t index, const Edit&) {
                               if (index == failAt) {
                                 throw AedError(ErrorCode::kApplyFailed,
                                                "test abort");
                               }
                             }),
        AedError);
    EXPECT_EQ(printNetworkConfig(working), before) << "failAt=" << failAt;
  }

  // And a completed apply followed by an explicit rollback.
  ConfigTree working = scenario.tree.clone();
  ApplyJournal journal;
  patch.applyJournaled(working, journal);
  EXPECT_NE(printNetworkConfig(working), before);
  journal.rollback();
  EXPECT_EQ(printNetworkConfig(working), before);
}

TEST(ReproTest, RoundTripsGeneratedScenario) {
  Scenario scenario = makeScenario(7);
  scenario.fault = parseFaultSpec("stage-commit stage=1 edit=2");
  Patch patch;
  Edit edit;
  edit.op = Edit::Op::kSetAttr;
  edit.targetPath = scenario.tree.routers().front()->path();
  edit.attrs["role"] = "edge";
  patch.add(edit);
  scenario.patch = std::move(patch);

  const InvariantMask selected =
      mask(Invariant::kJournalRollback) | mask(Invariant::kStagedVsOneShot);
  const std::string text = writeRepro(scenario, selected);
  const Repro repro = parseRepro(text);

  EXPECT_EQ(repro.scenario.seed, scenario.seed);
  EXPECT_EQ(repro.scenario.label, scenario.label);
  EXPECT_EQ(repro.invariants, selected);
  EXPECT_EQ(repro.scenario.fault.kind,
            FaultInjection::Kind::kStageCommitFailure);
  EXPECT_EQ(repro.scenario.fault.applyStage, 1u);
  EXPECT_EQ(repro.scenario.fault.applyEdit, 2u);
  ASSERT_TRUE(repro.scenario.patch.has_value());
  EXPECT_EQ(repro.scenario.patch->size(), 1u);
  EXPECT_EQ(printNetworkConfig(repro.scenario.tree),
            printNetworkConfig(scenario.tree));
  EXPECT_EQ(printPolicies(repro.scenario.policies),
            printPolicies(scenario.policies));
  // Fixed point: serializing the parsed repro reproduces the text.
  EXPECT_EQ(writeRepro(repro.scenario, repro.invariants), text);
}

TEST(ReproTest, PolicyPrintParseRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Scenario scenario = makeScenario(seed);
    const std::string printed = printPolicies(scenario.policies);
    const PolicySet parsed = parsePolicies(printed);
    EXPECT_EQ(printPolicies(parsed), printed) << "seed " << seed;
  }
}

TEST(ReproTest, RejectsMalformedInput) {
  const Scenario scenario = makeScenario(1);
  const std::string good = writeRepro(scenario, kCheapInvariants);

  // Missing header.
  EXPECT_THROW(parseRepro(good.substr(good.find('\n') + 1)), AedError);
  // Unknown directive.
  EXPECT_THROW(parseRepro("# aed_check repro v1\nbogus line\nconfigs\n"),
               AedError);
  // Unknown fault kind.
  EXPECT_THROW(parseRepro("# aed_check repro v1\nseed 1\nfault melt\n"
                          "configs\n"),
               AedError);
  // Missing configs section.
  EXPECT_THROW(parseRepro("# aed_check repro v1\nseed 1\n"), AedError);
}

TEST(ReproTest, FaultSpecParsing) {
  const FaultInjection reject = parseFaultSpec("reject-validation rounds=3");
  EXPECT_EQ(reject.kind, FaultInjection::Kind::kRejectValidation);
  EXPECT_EQ(reject.rejectRounds, 3);
  EXPECT_THROW(parseFaultSpec(""), AedError);
  EXPECT_THROW(parseFaultSpec("stage-commit stage"), AedError);
  EXPECT_THROW(parseFaultSpec("stage-commit planet=9"), AedError);
}

}  // namespace
}  // namespace aed::check
