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
//
// DeployFaultInjection mirrors core::FaultInjection's deployment-specific
// kinds (this module sits below core and cannot include it); core's
// deployFault() translates between the two.
#pragma once

#include <cstddef>

#include "apply/plan.hpp"
#include "conftree/tree.hpp"

namespace aed {

/// Deterministic fault injection for deployment chaos tests.
struct DeployFaultInjection {
  enum class Kind {
    kNone,
    /// Throw from the edit hook of stage `stage` at edit `atEdit`,
    /// simulating a device rejecting part of a config push mid-commit.
    kStageCommitFailure,
    /// Report a validation timeout for stage `stage` instead of running the
    /// post-stage simulation check.
    kValidationTimeout,
  };
  Kind kind = Kind::kNone;
  std::size_t stage = 0;   // stage index the fault targets
  std::size_t atEdit = 0;  // kStageCommitFailure: edit index within the stage
};

/// Executes `plan` against `tree`, mutating both: `tree` advances stage by
/// stage (and stays at the last committed state on abort), `plan` receives
/// per-stage statuses/timings and the execution summary. Returns true when
/// every stage committed. Re-validates each intermediate state against
/// plan.guard even for stages the planner could not pre-validate.
bool executeDeployment(ConfigTree& tree, DeploymentPlan& plan,
                       const DeployOptions& options = {},
                       const DeployFaultInjection& fault = {});

}  // namespace aed
