// Staged rollout planning: turning one merged patch into an ordered
// sequence of per-router / per-destination stages that is policy-safe at
// every intermediate configuration.
//
// AED synthesizes a network-wide patch, but operators do not flip an entire
// network atomically — patches roll out router by router, and the
// update-synthesis line of work (Noyes et al., McClurg et al.) shows the
// *transient* states in between are where real outages happen. The planner
// addresses exactly that gap:
//
//   1. The merged patch is partitioned into atomic units — one per touched
//      router, further split per destination prefix when every edit of a
//      router is attributable to a destination and no unit structurally
//      depends on another (a rule added under a filter that a different
//      unit creates must ride with that filter).
//   2. Units are ordered greedily with simulation-checked reordering: at
//      each step the first unit whose application does not regress any
//      *guard* policy — a policy that holds both before and after the full
//      update — is committed. Each intermediate configuration is validated
//      by a SimulationEngine built for it.
//   3. When no remaining unit is individually safe (e.g. two traffic
//      classes swapping disjoint paths under an isolation policy), the
//      planner falls back to a single one-shot stage that applies the rest
//      of the patch atomically — the final configuration satisfies the
//      guard by construction.
//
// The resulting DeploymentPlan is executed by the chaos-hardened commit
// loop in deploy.hpp and surfaced through AedResult::deployment.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "conftree/patch.hpp"
#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "util/error.hpp"

namespace aed {

struct DeployOptions {
  /// Worker threads for the validation engine (0 = hardware concurrency).
  std::size_t workers = 0;
};

/// Lifecycle of one stage: planned (not yet executed), committed (applied
/// and validated), rolled back (applied, then undone after a fault or a
/// validation regression), skipped (a prior stage aborted the deployment).
enum class StageStatus { kPlanned, kCommitted, kRolledBack, kSkipped };

/// Stable lowercase identifier, e.g. "rolled_back".
const char* stageStatusName(StageStatus status);

struct DeploymentStage {
  std::size_t index = 0;
  /// Human-readable scope, e.g. "router B", "router B · 1.0.0.0/16", or
  /// "one-shot (3 routers)".
  std::string label;
  Patch patch;
  /// Router names this stage touches.
  std::set<std::string> routers;
  /// True when the planner simulation-checked the intermediate
  /// configuration reached after this stage (zero guard regressions).
  bool validated = false;
  StageStatus status = StageStatus::kPlanned;
  std::string detail;  // execution detail: fault text, regression, ...
  double applySeconds = 0.0;     // filled by executeDeployment
  double validateSeconds = 0.0;  // filled by executeDeployment
};

struct DeploymentPlan {
  std::vector<DeploymentStage> stages;
  /// Policies that hold before and after the full update — the
  /// no-transient-regression invariant every intermediate state is checked
  /// against.
  PolicySet guard;
  /// True when the planner had to merge remaining units into one atomic
  /// final stage because no per-unit order was transient-safe.
  bool oneShot = false;
  std::size_t reorderings = 0;      // greedy picks that skipped an unsafe unit
  std::size_t candidatesTried = 0;  // intermediate states simulated
  double planSeconds = 0.0;

  /// Execution summary, filled by executeDeployment().
  bool executed = false;
  bool aborted = false;
  std::size_t committedStages = 0;
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  double executeSeconds = 0.0;

  bool empty() const { return stages.empty(); }
  /// Multi-line human-readable plan + execution summary.
  std::string describe() const;
};

/// Policies from `policies` that hold on `base` and still hold on
/// `updated`: the transition invariant (a policy broken before the update —
/// typically the reason the update exists — cannot be "regressed" by an
/// intermediate state, and one broken after it is already reported by
/// synthesis).
PolicySet regressionGuard(const ConfigTree& base, const ConfigTree& updated,
                          const PolicySet& policies,
                          const DeployOptions& options = {});

/// Plans a staged rollout of `merged` over `base`. `policies` is the full
/// post-update policy set (the guard is derived from it). Never throws on
/// unorderable inputs — it degrades to the one-shot fallback.
DeploymentPlan planStagedRollout(const ConfigTree& base, const Patch& merged,
                                 const PolicySet& policies,
                                 const DeployOptions& options = {});

}  // namespace aed
