// Chaos-hardened execution of a DeploymentPlan: the commit loop that takes a
// live ConfigTree through the planned stages.
//
// Invariants (asserted by tests/apply_test.cpp, including a property test
// over generated networks):
//   - Each stage applies through an ApplyJournal and is committed only after
//     the resulting intermediate configuration re-validates against the
//     plan's guard policies. A fault during apply — or a validation failure
//     or timeout after it — rolls the stage back and aborts the deployment,
//     leaving the tree bit-identical to the last committed consistent state.
//   - Stages after an abort are never touched (StageStatus::kSkipped).
//   - executeDeployment never throws: every failure is reported through the
//     plan's execution summary (code / error / per-stage status + detail).
#pragma once

#include <cstddef>
#include <cstdint>

#include "apply/plan.hpp"
#include "conftree/tree.hpp"

namespace aed {

/// Deterministic fault injection for tests and chaos benches. synthesize()
/// (core/aed.hpp) poisons the subproblem with index `subproblem` (in
/// destination order, as reported by AedResult::subproblems) every time it
/// is solved; executeDeployment() acts on the kStage* kinds only. Declared
/// here because this module sits below core.
struct FaultInjection {
  enum class Kind {
    kNone,     // no injection
    kThrow,    // the subproblem throws AedError(kSubproblemFailed)
    kDelay,    // the subproblem sleeps delayMs before solving
    kUnknown,  // the search stops where its total-cost step would begin,
               // as if a check had answered "unknown", so the degraded
               // rungs run for real
    kRejectValidation,  // the simulator validation of the first rejectRounds
                        // otherwise-passing merged patches is treated as
                        // failed, deterministically forcing that many repair
                        // rounds (blocking + re-solve run for real); used by
                        // the repair-round equivalence tests and
                        // bench_incremental
    kStageCommitFailure,     // staged deployment only: stage `applyStage`
                             // fails mid-commit at edit `applyEdit` and is
                             // rolled back
    kStageValidationTimeout, // staged deployment only: validating stage
                             // `applyStage` times out; the stage is rolled
                             // back and the deployment aborts
  };
  Kind kind = Kind::kNone;
  /// Index of the subproblem to poison (destination order); ignored by
  /// Kind::kRejectValidation, which rejects whole-run validation verdicts.
  int subproblem = 0;
  /// Sleep duration for Kind::kDelay.
  std::uint64_t delayMs = 50;
  /// Rounds of forced validation rejection for Kind::kRejectValidation.
  int rejectRounds = 1;
  /// Deployment stage targeted by the kStage* kinds.
  std::size_t applyStage = 0;
  /// Edit index within the stage for Kind::kStageCommitFailure.
  std::size_t applyEdit = 0;
};

/// Executes `plan` against `tree`, mutating both: `tree` advances stage by
/// stage (and stays at the last committed state on abort), `plan` receives
/// per-stage statuses/timings and the execution summary. Returns true when
/// every stage committed. Re-validates each intermediate state against
/// plan.guard even for stages the planner could not pre-validate. The
/// DeployOptions are ignored.
bool executeDeployment(ConfigTree& tree, DeploymentPlan& plan,
                       const DeployOptions& = {},
                       const FaultInjection& fault = {});

}  // namespace aed
