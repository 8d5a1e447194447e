// AED: the top-level synthesis engine (§4, §8).
//
// synthesize() takes the current configurations, the full set of forwarding
// policies the updated network must satisfy (already-satisfied ones included
// — AED must not regress them), and the operator's management objectives.
// It returns a patch (syntax-tree additions/removals) that makes every
// policy hold while maximally satisfying the objectives.
//
// The §8 optimizations:
//   1. pruning irrelevant configuration   — SketchOptions::pruneIrrelevant
//   2. per-destination decomposition      — AedOptions::perDestination,
//      one MaxSMT problem per destination prefix, solved side by side on
//      AedOptions::workers lanes (one Z3 context per group)
//   3. boolean metric encoding            — EncoderOptions::booleanLp
//
// AED is incremental: an update adds a few policies to a network that
// already meets most of them. Before round 0 the simulator checks the
// unchanged network against each destination group. When every objective is
// NOMODIFY and defaultMinimality is on, a group that already holds has the
// empty patch as its MaxSMT optimum (cost 0: every minimality and NOMODIFY
// soft constraint holds when nothing changes), so it is answered with that
// patch, rung SolveRung::kNone and a rungReason, and no Z3 solver is built
// for it. ELIMINATE/EQUATE objectives, defaultMinimality off (the
// NetComplete baseline) and a group that fault injection poisons are
// solved as before.
//
// Every candidate patch is validated against the concrete control-plane
// simulator; if validation fails (the SMT model admits stable states the
// iterative simulator does not converge to, e.g. mutual redistribution
// cycles), the offending delta combination is blocked and the affected
// subproblem re-solved, up to maxRepairIterations times.
//
// Resilience (the failure model; see DESIGN.md "Failure model & degradation
// ladder"): subproblems are fault-isolated — one destination that throws,
// times out, or goes unknown never discards sibling work. A global
// wall-clock budget (timeBudgetMs) is split across the queued subproblems
// that build a solver and wired to Z3's timeout. Under pressure each
// subproblem's search over cost bounds stops early and answers with what it
// has (the user-objective optimum, or only a model of the hard constraints)
// before being reported as failed. Per-subproblem outcomes are returned in
// AedResult::subproblems.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/patch.hpp"
#include "conftree/tree.hpp"
#include "encode/encoder.hpp"
#include "objectives/objective.hpp"
#include "policy/policy.hpp"
#include "simulate/engine.hpp"
#include "sketch/sketch.hpp"
#include "smt/solver_stats.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace aed {

struct AedOptions {
  SketchOptions sketch;
  EncoderOptions encoder;

  /// §8 optimization 2: decompose into one MaxSMT problem per destination
  /// prefix and solve them in parallel.
  bool perDestination = true;
  /// Lanes for the parallel decomposition's solves and teardown frees,
  /// the calling thread included (0 = hardware concurrency; 1 = everything
  /// on the calling thread).
  std::size_t workers = 0;

  /// Unit-weight soft constraints preferring every delta inactive (doubles
  /// as the min-lines objective; keeps patches free of gratuitous edits).
  bool defaultMinimality = true;

  /// Every candidate patch is validated with a SimulationEngine built for
  /// its tree; a rejected one is re-solved with the failing delta set
  /// blocked, up to this many rounds per subproblem.
  int maxRepairIterations = 3;

  /// After a successful synthesis, plan a policy-safe staged rollout of the
  /// patch and execute it (with fault injection, against a scratch clone of
  /// the input tree) — see apply/plan.hpp. The plan and its execution
  /// summary are returned in AedResult::deployment; a deployment abort marks
  /// the result degraded but does not fail it.
  bool stagedDeployment = false;
  /// Ignored: synthesis plans and executes with default DeployOptions. Kept
  /// so the benchmark harness, which reads it, still compiles.
  DeployOptions deploy;

  /// Incremental re-solve (the paper's headline lever, applied to the repair
  /// loop): keep one persistent SubproblemSolver — sketch, Z3 session, and
  /// encoding — per destination group for the whole call, so a repair round
  /// only pushes the new blocked-delta clauses into the live solver and
  /// re-checks. When false, every repair round rebuilds the subproblem from
  /// scratch (the pre-incremental behavior). The fresh mode is the reference
  /// run of aed_check's incremental-equiv invariant (check/invariants.cpp)
  /// and the A side of bench_incremental's A/B timing.
  bool incrementalResolve = true;

  /// Global wall-clock budget in milliseconds for the whole run, split
  /// across the queued subproblems that build a solver and wired to Z3's
  /// timeout parameter. 0 = unlimited.
  std::uint64_t timeBudgetMs = 0;
  /// Deterministic fault injection (tests only).
  FaultInjection faultInjection;

  /// Non-zero: randomize the solver's decision phase with this seed. Used
  /// only by the NetComplete-like clean-slate baseline (see
  /// baselines/netcomplete.hpp); AED itself keeps Z3's defaults.
  unsigned randomPhaseSeed = 0;
};

/// Per-subproblem verdict in AedResult::subproblems.
enum class SubOutcome {
  kOk = 0,    // solved at the proved MaxSMT optimum
  kDegraded,  // solved, but on a lower rung of the degradation ladder
  kTimedOut,  // wall-clock budget expired before any rung produced a model
  kUnsat,     // hard constraints unsatisfiable: the policies conflict
  kError,     // the subproblem threw or the solver answered unknown
};

/// Stable lowercase identifier, e.g. "timed_out".
const char* subOutcomeName(SubOutcome outcome);

/// One entry per subproblem (destination group), in destination order.
struct SubproblemReport {
  std::size_t index = 0;
  std::string destination;  // destination prefix, or "*" for monolithic
  std::size_t policyCount = 0;
  SubOutcome outcome = SubOutcome::kOk;
  ErrorCode code = ErrorCode::kNone;
  std::string detail;  // human-readable: exception text, ladder rung, ...
  double seconds = 0.0;  // solve() wall time, summed across rounds
  /// Solver introspection (§12): the rung that produced the final answer
  /// (last solve of the last round), why, and Z3 effort counters summed
  /// across every round of this subproblem. A group the input already
  /// satisfies reports SolveRung::kNone, zero counters and a rungReason
  /// saying so. aed_cli --solver-stats prints the per-destination breakdown.
  SolveRung rung = SolveRung::kNone;
  std::string rungReason;
  SolverStats solverStats;
};

/// Wall-clock seconds per engine phase. AedStats sums them across
/// subproblems (so under parallelism a bucket can exceed the round's elapsed
/// time); a SubResult holds one solve's, with simulateSeconds left at 0.
struct PhaseBreakdown {
  double sketchSeconds = 0.0;    // delta enumeration (buildSketch)
  double encodeSeconds = 0.0;    // session build, constraints, objectives
  double solveSeconds = 0.0;     // SmtSession::check (the bound search)
  double extractSeconds = 0.0;   // model → patch + active-delta readout
  double simulateSeconds = 0.0;  // simulator validation of the merged patch
  double total() const {
    return sketchSeconds + encodeSeconds + solveSeconds + extractSeconds +
           simulateSeconds;
  }
};

struct AedStats {
  double totalSeconds = 0.0;
  // Over every solve() of every round: the longest single solve (the
  // critical path under parallelism) and the total solver work (the
  // sequential cost).
  double maxSubproblemSeconds = 0.0;
  double sumSubproblemSeconds = 0.0;
  std::size_t subproblems = 0;
  std::size_t degradedSubproblems = 0;  // solved below the MaxSMT optimum
  std::size_t failedSubproblems = 0;    // timed out / unsat / error
  std::size_t deltaCount = 0;
  std::size_t repairRounds = 0;

  /// Phase timing, split by round kind: round 0 pays the full
  /// sketch+encode+solve cost for every subproblem; repair rounds should be
  /// nearly pure solve time when incrementalResolve is on (sketch/encode
  /// stay at ~0 because the persistent solvers are reused).
  PhaseBreakdown firstRound;
  PhaseBreakdown repair;

  /// Subproblem re-solves answered by the warm start: the search's first
  /// bound, the previous optimum, was satisfiable, so one check proved the
  /// optimum. Only persistent solvers can warm-start, so this stays 0 with
  /// incrementalResolve off.
  std::size_t warmStartSolves = 0;

  /// Ladder-rung outcome counts across every solve of the run (one count per
  /// SmtSession::check call that returned; mirrored as smt.rung.* counters).
  /// Indexed by static_cast<size_t>(SolveRung).
  std::array<std::size_t, 7> rungCounts{};

  /// Simulation-engine cache behavior, summed over the engines of every
  /// validation round (zeroed when validation never ran).
  SimCacheStats simulate;
};

struct AedResult {
  /// True when a simulator-validated patch was produced for at least one
  /// subproblem (all of them unless `degraded` is set).
  bool success = false;
  /// True when any subproblem fell down the degradation ladder or failed;
  /// the patch covers the surviving destinations only. Per-subproblem
  /// details are in `subproblems`.
  bool degraded = false;
  std::string error;        // set when !success
  ErrorCode errorCode = ErrorCode::kNone;  // classification when !success

  Patch patch;
  ConfigTree updated;  // tree after applying the patch

  /// Staged rollout plan + execution summary (AedOptions::stagedDeployment);
  /// empty() when staged deployment was off or synthesis failed.
  DeploymentPlan deployment;

  /// Per-subproblem outcome report, in destination order.
  std::vector<SubproblemReport> subproblems;

  /// Desugared objective labels, aggregated across subproblems: an
  /// objective counts as satisfied only if no subproblem violated it.
  std::vector<std::string> satisfiedObjectives;
  std::vector<std::string> violatedObjectives;

  AedStats stats;
};

/// Runs AED. `policies` is the complete post-update policy set.
AedResult synthesize(const ConfigTree& tree, const PolicySet& policies,
                     const std::vector<Objective>& objectives = {},
                     const AedOptions& options = {});

/// Merges per-destination patches: deduplicates identical edits (shared
/// scaffolding such as a newly created filter) and renumbers colliding
/// rule sequence numbers. Exposed for tests.
Patch mergePatches(const std::vector<Patch>& patches);

}  // namespace aed
