// Persistent per-subproblem MaxSMT solver (the incremental re-solve engine).
//
// One SubproblemSolver owns the Sketch, SmtSession (and therefore the
// z3::context + z3::optimize instance), and Encoder for one subproblem (the
// whole problem, or one destination group) until no repair round of the
// synthesis run can pick that subproblem again. The first solve() pays the
// full sketch + encode cost; every repair round after that only pushes the
// *new* blocked-delta hard clauses into the live solver and re-checks,
// instead of rebuilding everything from scratch. Destruction frees the Z3
// context, which after a solve takes longer than encoding it did, inside a
// "subsolver.free" span.
//
// Why incremental blocking is sound: the blocked-delta list shared across
// repair rounds grows monotonically — a delta combination that failed
// simulator validation once is invalid forever (the simulator is
// deterministic over a fixed tree+policy set), so its blocking clause is a
// permanent hard constraint, never retracted. Adding hard clauses to a live
// z3::optimize and re-running check() is exactly Z3's incremental mode; the
// solver keeps its learned clauses and the unchanged encoding across rounds.
//
// Thread-safety: a SubproblemSolver owns its own z3::context, so distinct
// solvers are safe to drive, and to destroy, from distinct threads
// concurrently (the parallel per-destination engine keeps one solver per
// destination group and each worker touches only its own). A single solver
// must not be shared across threads without external ordering; the engine
// may destroy it on another thread than the one that drove it, ordered by
// the pool's futures.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/aed.hpp"

namespace aed {

/// Outcome of one solve() call on one subproblem.
struct SubResult {
  SubOutcome outcome = SubOutcome::kError;
  ErrorCode code = ErrorCode::kNone;
  std::string detail;

  bool sat = false;
  Patch patch;
  std::vector<std::string> satisfied;
  std::vector<std::string> violated;
  std::vector<std::string> activeDeltas;  // for blocking on repair
  double seconds = 0.0;
  std::size_t deltaCount = 0;
  /// This call's phase timings: sketch/encode are zero on incremental
  /// re-solves (nothing is rebuilt).
  PhaseBreakdown phases;
  /// True when the solve was served by the session's incremental warm-start
  /// fast path (single SAT query at the previous optimum, no MaxSMT run).
  bool warmStart = false;
  /// Introspection (§12): which ladder rung answered this solve and why,
  /// plus Z3 effort counters and encoding sizes for the call. Totals across
  /// the rounds of one subproblem accumulate in SubproblemReport.
  SolveRung rung = SolveRung::kNone;
  std::string rungReason;
  SolverStats solverStats;
};

class SubproblemSolver {
 public:
  /// `tree` and `topo` must outlive the solver; policies/objectives/options
  /// are copied (options.defaultMinimality, randomPhaseSeed, sketch and
  /// encoder options are honored).
  SubproblemSolver(const ConfigTree& tree, const Topology& topo,
                   PolicySet policies, std::vector<Objective> objectives,
                   const AedOptions& options);
  ~SubproblemSolver();

  SubproblemSolver(const SubproblemSolver&) = delete;
  SubproblemSolver& operator=(const SubproblemSolver&) = delete;

  /// Solves (round 0) or incrementally re-solves (repair rounds) the
  /// subproblem. `blockedDeltaSets` is the monotonically growing list of
  /// delta combinations that failed simulator validation, shared across
  /// rounds; only the suffix not yet asserted is pushed into the solver.
  /// The deadline is re-applied on every call, so each round gets its own
  /// budget share. `injectUnknown` forces the next full MaxSMT verdict to
  /// "unknown" (deterministic fault injection).
  SubResult solve(
      const std::vector<std::vector<std::string>>& blockedDeltaSets,
      const Deadline& deadline, bool injectUnknown = false);

  /// Completed solve() calls; 0 means the next call pays sketch + encode.
  int rounds() const { return rounds_; }

 private:
  /// Builds the sketch, session, encoding, and objective softs (first call).
  void ensureEncoded(SubResult& result);

  const ConfigTree& tree_;
  const Topology& topo_;
  PolicySet policies_;
  std::vector<Objective> objectives_;
  AedOptions options_;

  // Construction order matters for destruction: the encoder references the
  // session and the sketch, so it is declared last (destroyed first).
  std::unique_ptr<SmtSession> session_;
  std::optional<Sketch> sketch_;
  std::unique_ptr<Encoder> encoder_;

  /// Prefix of the shared blocked-delta list already asserted as hard
  /// clauses in the live solver.
  std::size_t blockedApplied_ = 0;
  int rounds_ = 0;
};

}  // namespace aed
