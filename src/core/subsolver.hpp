// Persistent per-subproblem MaxSMT solver (the incremental re-solve engine).
//
// One SubproblemSolver owns the Sketch, SmtSession (and therefore the
// z3::context and its one z3::solver, of the kind solverKind() picks), and
// Encoder for one subproblem (the whole problem, or one destination group)
// until the synthesis run's teardown frees it. The first solve() pays the
// full sketch + encode cost (the encode phase includes building the session);
// every repair round after that only pushes the *new* blocked-delta hard
// clauses into the live solver and re-checks, instead of rebuilding
// everything from scratch. Destruction frees the Z3 context inside a
// "subsolver.free" span; the session releases every reference it holds
// first (smt/session.hpp), so Z3 has no leaked nodes to sweep.
//
// Why incremental blocking is sound: a subproblem's own blocked-delta list
// grows monotonically across repair rounds — a delta combination that
// failed simulator validation once is invalid forever (the simulator is
// deterministic over a fixed tree+policy set), so its blocking clause is a
// permanent hard constraint, never retracted. Adding hard clauses to the
// live solver and re-running the session's search is Z3's incremental mode:
// the solver keeps its learned clauses and the unchanged encoding across
// rounds, and the previous optimum is the first cost bound tried.
//
// Thread-safety: a SubproblemSolver owns its own z3::context, so distinct
// solvers are safe to drive, and to destroy, from distinct threads
// concurrently (the parallel per-destination engine keeps one solver per
// destination group and each task touches only its own). A single solver
// must not be shared across threads without external ordering; the engine
// may destroy it on another lane than the one that drove it, ordered after
// its last use by the join at the end of runParallel() (util/parallel.hpp).
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
  /// Introspection (§12): which ladder rung answered this solve and why
  /// (SolveRung::kWarmStart: the first cost bound, the previous optimum,
  /// was satisfiable), plus Z3 effort counters and encoding
  /// sizes for the call. Totals across the rounds of one subproblem
  /// accumulate in SubproblemReport.
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
  /// subproblem. `blockedDeltaSets` is its own growing list of delta
  /// combinations that failed simulator validation, each name a delta of its
  /// sketch; only the suffix not yet asserted is pushed into the solver.
  /// The deadline is re-applied on every call, so each round gets its own
  /// budget share. `injectUnknown` stops the search where its total-cost
  /// step would begin (deterministic fault injection). Throws kInvalidInput
  /// when an objective's scaled weight, or the summed soft weight, does not
  /// fit in an int.
  SubResult solve(
      const std::vector<std::vector<std::string>>& blockedDeltaSets,
      const Deadline& deadline, bool injectUnknown = false);

  /// The solver a group's session builds (smt/session.hpp): the kernel when
  /// the group has softs, defaultMinimality or any objective (every AED
  /// group), since each of its checks carries a cost-bound assumption; Z3's
  /// default solver without softs (the NetComplete-like baseline), where
  /// the one check carries none.
  static SmtSession::SolverKind solverKind(
      const AedOptions& options, const std::vector<Objective>& objectives);

  /// Completed solve() calls; 0 means the next call pays sketch + encode.
  int rounds() const { return rounds_; }

  /// The live session, read-only: what it minimizes and its last model
  /// (the optimum-equal invariant's oracle reads both). Valid after solve().
  const SmtSession& session() const {
    require(session_ != nullptr, "SubproblemSolver::session() before solve");
    return *session_;
  }

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

  /// Prefix of the blocked-set list already asserted as hard clauses in the
  /// live solver.
  std::size_t blockedApplied_ = 0;
  int rounds_ = 0;
};

}  // namespace aed
