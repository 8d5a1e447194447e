// The differential and metamorphic invariant catalog.
//
// The repo now has five interacting engines whose agreement used to be
// asserted only on hand-written cases: the MaxSMT subsolver, the serial
// simulator oracle, the memoized SimulationEngine, the transactional apply
// journal, and the staged-deployment planner/executor. checkScenario() runs
// one full synthesize→apply→simulate pipeline over a Scenario and asserts
// every selected invariant, reporting each violation with enough detail to
// shrink and file it (see shrink.hpp):
//
// Differential invariants (independent implementations must agree):
//   synth-sound      the synthesized patch satisfies every policy per the
//                    *serial* oracle — the paper's core claim, checked
//                    against the engine that took no part in synthesis
//   sim-differential memoized SimulationEngine violations sweeps are
//                    identical to the serial Simulator's, on the base and
//                    the patched network
//   journal-rollback Patch::applyJournaled aborted at *every* edit index
//                    restores the bit-identical pre-apply tree; a completed
//                    apply followed by rollback() does too
//   staged-oneshot   clean staged-deployment execution lands on the same
//                    printed network as the one-shot merged apply
//   incremental-equiv the incremental re-solve result is policy-equivalent
//                    to a from-scratch fresh solve
//   optimum-equal    every destination group of the input, solved on its own
//                    SubproblemSolver with no objectives and with
//                    min-devices, reaches the optimal cost z3::optimize
//                    finds over the same hard assertions and weighted softs
//                    (equal cost, not an equal model)
//   frozen-align     every destination group of the input, encoded with
//                    every delta frozen to inactive, is satisfiable exactly
//                    when the serial Simulator finds none of its policies
//                    violated: the encoding models the network as configured
//
// Metamorphic invariants (input transformations that must not change
// verdicts):
//   resynth-noop     solving every destination group of the already-patched
//                    network on its own solver yields the empty patch: the
//                    premise on which synthesize() answers groups the input
//                    already satisfies without building a solver
//   policy-order     permuting policy order leaves the violation verdicts
//                    unchanged (as a set)
//   router-order     permuting router declaration order leaves the
//                    violation verdicts unchanged
//
// All comparisons use printed canonical forms (printNetworkConfig,
// Policy::str), so "equal" always means bit-identical text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/scenario.hpp"

namespace aed::check {

enum class Invariant : unsigned {
  kSynthSound = 1u << 0,
  kSimDifferential = 1u << 1,
  kJournalRollback = 1u << 2,
  kStagedVsOneShot = 1u << 3,
  kIncrementalEquiv = 1u << 4,
  kResynthNoOp = 1u << 5,
  kPolicyOrder = 1u << 6,
  kRouterOrder = 1u << 7,
  kOptimumEqual = 1u << 8,
  kFrozenAlign = 1u << 9,
};

using InvariantMask = unsigned;

constexpr InvariantMask mask(Invariant inv) {
  return static_cast<InvariantMask>(inv);
}

/// Every invariant.
constexpr InvariantMask kAllInvariants =
    mask(Invariant::kSynthSound) | mask(Invariant::kSimDifferential) |
    mask(Invariant::kJournalRollback) | mask(Invariant::kStagedVsOneShot) |
    mask(Invariant::kIncrementalEquiv) | mask(Invariant::kResynthNoOp) |
    mask(Invariant::kPolicyOrder) | mask(Invariant::kRouterOrder) |
    mask(Invariant::kOptimumEqual) | mask(Invariant::kFrozenAlign);

/// Invariants costing at most one synthesis run. kIncrementalEquiv,
/// kResynthNoOp, kOptimumEqual and kFrozenAlign each pay further solves;
/// the fuzz driver runs them on a deterministic subset of seeds so smoke
/// sweeps stay fast.
constexpr InvariantMask kCheapInvariants =
    kAllInvariants &
    ~(mask(Invariant::kIncrementalEquiv) | mask(Invariant::kResynthNoOp) |
      mask(Invariant::kOptimumEqual) | mask(Invariant::kFrozenAlign));

/// Stable kebab-case identifier, e.g. "journal-rollback".
const char* invariantName(Invariant inv);
/// Inverse of invariantName; nullopt on unknown names.
std::optional<Invariant> invariantFromName(std::string_view name);
/// All invariants, in declaration order.
const std::vector<Invariant>& allInvariants();

struct InvariantFailure {
  Invariant invariant = Invariant::kSynthSound;
  /// Coarse failure class ("violations", "aborted", "rollback",
  /// "exception", ...). The shrinker accepts a reduction only when the same
  /// invariant fails with the same category, so minimization cannot drift
  /// to a different bug.
  std::string category;
  std::string detail;  // human-readable: what disagreed, on which input
};

struct CheckOutcome {
  std::vector<InvariantFailure> failures;
  InvariantMask checked = 0;  // invariants actually evaluated
  InvariantMask skipped = 0;  // selected but not evaluable on this scenario
  bool synthesized = false;   // a patch was produced (or supplied)
  std::size_t patchEdits = 0;
  /// Why patch-dependent invariants were skipped ("unsat", "degraded", ...).
  std::string note;
  /// Why an invariant was skipped on part of its input, e.g. a destination
  /// group the optimum-equal oracle could not decide.
  std::vector<std::string> skipReasons;
  double seconds = 0.0;

  bool passed() const { return failures.empty(); }
};

/// Runs the pipeline on `scenario` and checks the selected invariants.
/// Never throws: an exception escaping any engine is itself reported as a
/// failure of the invariant being evaluated.
CheckOutcome checkScenario(const Scenario& scenario, InvariantMask selected);

}  // namespace aed::check
