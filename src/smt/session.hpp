// Thin wrapper over the Z3 C++ API.
//
// One SmtSession owns one z3::context and one plain z3::solver. Z3 contexts
// are not thread-safe, so the parallel per-destination engine (§8) creates
// one session per task. The solver is one of two kinds, fixed at
// construction (SolverKind). A session whose checks carry cost-bound
// assumptions builds Z3's plain SMT kernel, z3::solver::simple(): a check
// under assumptions runs only the kernel anyway, and Z3's default solver
// would also build its whole strategic tactic and feed every assertion to
// it, which costs several times the kernel's own construction and contends
// on Z3's process-wide locks when lanes build sessions at once. A session
// without softs makes one check without assumptions, which the default
// solver answers with that tactic, so it keeps the default solver.
//
// The session also keeps a registry of named variables so that the sketch
// encoder and the objective translator can refer to the same delta
// variables by name, and a registry of weighted soft constraints so callers
// can report which management objectives were satisfied by the chosen model.
//
// check() answers the MaxSMT query (the model of the hard constraints whose
// violated softs weigh least) with the plain solver alone: it checks
// pseudo-boolean bounds `cost <= B` from below, each behind a fresh
// assumption literal; a model whose cost meets a proved lower bound is the
// optimum. It bounds the user-objective cost alone, then the total with the
// unit minimality softs from the proved user optimum. Bounds rise by
// doubling steps from the smallest weight until one is satisfiable; a
// binary search then closes the gap to the best model's cost. An unsat core
// without the bound's literal, or a bound at or above the summed weight (a
// check without assumptions), certifies hard unsatisfiability. The rung
// says how far the search got (solver_stats.hpp): it stops when a check
// times out or answers unknown, or under fault injection where the
// total-cost step would begin, and without a model makes one plain check.
//
// Sessions are incremental: constraints may be added and check() re-run any
// number of times (the persistent SubproblemSolver keeps one session alive
// across repair rounds and only pushes new blocked-delta clauses), and the
// solver keeps what it learned. addHard() only shrinks the feasible set, so
// the previous optimum stays a lower bound: a re-check first tries exactly
// that bound, and when it is satisfiable the model is optimal at once (the
// warm start). Only addSoft() forgets it (a new soft changes the cost).
//
// Expression slots are overwritten through reassign(), never with
// `slot = <temporary>`. The z3++ 4.8.12 move assignment (`ast::operator=
// (ast&&)`, inherited by z3::expr) drops the old AST without Z3_dec_ref, so
// such a statement leaks one reference, and Z3_del_context has to sweep
// every leaked node, which makes freeing a context slower than building
// it. reassign() retires the old value into the session instead of
// releasing it at once, and the session releases everything it retired
// just before its context is deleted. Keeping it matters: Z3 flattens
// `or`/`and`, so an old accumulator is not a subterm of its successor, and
// releasing it mid-encode returns its AST id to Z3's free list. Later ids
// shift, Z3 breaks ties differently, and the optimal patch can change.
#pragma once

#include <z3++.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "smt/solver_stats.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace aed {

class SmtSession {
 public:
  /// Which Z3 solver the session builds (see the header).
  enum class SolverKind {
    /// z3::solver::simple(): the incremental SMT kernel alone. For sessions
    /// with softs, whose checks carry cost-bound assumptions.
    kKernel,
    /// z3::solver(ctx): Z3's default solver, which answers a check without
    /// assumptions with its strategic tactic. For sessions without softs.
    kCombined,
  };

  explicit SmtSession(SolverKind kind = SolverKind::kKernel)
      : kind_(kind),
        solver_(kind == SolverKind::kKernel
                    ? z3::solver(ctx_, z3::solver::simple())
                    : z3::solver(ctx_)),
        hard_(ctx_) {}

  SmtSession(const SmtSession&) = delete;
  SmtSession& operator=(const SmtSession&) = delete;

  // ---- variable factories -------------------------------------------------

  /// Creates (or returns the previously created) named boolean variable.
  z3::expr boolVar(const std::string& name);
  /// Creates (or returns the previously created) named integer variable.
  z3::expr intVar(const std::string& name);
  /// Looks up a previously created variable; throws if unknown.
  z3::expr var(const std::string& name) const;

  // ---- constants ----------------------------------------------------------

  z3::expr boolVal(bool value) { return ctx_.bool_val(value); }
  z3::expr intVal(int value) { return ctx_.int_val(value); }

  /// Stores `value` in `slot` and keeps the expression `slot` held alive
  /// until the session dies (see the header for why it is neither leaked
  /// nor released at once). `slot` must belong to this session's context.
  void reassign(z3::expr& slot, const z3::expr& value) {
    retired_.push_back(slot);
    slot = value;
  }

  // ---- constraints ----------------------------------------------------------

  /// Adds a hard constraint. Legal at any time, including between check()
  /// calls: the persistent subproblem solver relies on this to push new
  /// blocked-delta clauses into the live solver on every repair round
  /// instead of re-encoding from scratch.
  void addHard(const z3::expr& constraint) {
    solver_.add(constraint);
    hard_.push_back(constraint);
  }

  /// The search proves the user objectives' optimum before it minimizes the
  /// internal per-delta minimality pressure.
  enum class SoftKind { kUser, kMinimality };

  /// Adds a weighted soft constraint labeled with an objective name and
  /// returns its index. Throws kInvalidInput, naming `label`, when the
  /// summed soft weight would exceed INT_MAX (cost bounds are 32-bit
  /// pseudo-boolean sums).
  std::size_t addSoft(const z3::expr& constraint, unsigned weight,
                      const std::string& label,
                      SoftKind kind = SoftKind::kUser);

  /// Randomizes the solver's decision phase. Used by the NetComplete-like
  /// clean-slate baseline: a synthesizer that does not anchor on the current
  /// configuration picks arbitrary values for unconstrained constructs;
  /// Z3's default false-bias would otherwise make the baseline look
  /// artificially incremental. The SAT solver's phase, which the tactic of
  /// kCombined may run, is set only there: the kernel refuses the name.
  void randomizePhase(unsigned seed);

  /// What check() minimizes, for an independent oracle: the hard
  /// constraints as added (no cost bounds) and every soft with its weight.
  struct Problem {
    z3::expr_vector hard;
    std::vector<std::pair<z3::expr, unsigned>> softs;
  };
  Problem problem() const;

  // ---- resilience ----------------------------------------------------------

  /// Caps all subsequent check() work at this wall-clock deadline (the
  /// remaining budget is passed to Z3 as its `timeout` parameter, re-read
  /// before each bound). Unlimited by default.
  void setDeadline(const Deadline& deadline) { deadline_ = deadline; }

  /// Deterministic fault injection for tests: the next `count` checks stop
  /// their search where the total-cost step would begin, as if a check had
  /// answered "unknown".
  void injectUnknown(int count) { injectUnknown_ = count; }

  // ---- solving --------------------------------------------------------------

  struct Result {
    /// Introspection (§12) and the answer itself: how far the search got,
    /// and why.
    SolveRung rung = SolveRung::kNone;
    std::string rungReason;
    /// On kGaveUp: kTimeout when the wall-clock deadline expired, otherwise
    /// kSolverUnknown. An "unknown" must never be treated as a proof of
    /// unsatisfiability.
    ErrorCode code = ErrorCode::kNone;
    /// Labels of the user softs satisfied / violated by the model; the
    /// per-delta minimality softs are an internal mechanism and not listed.
    std::vector<std::string> satisfiedObjectives;
    std::vector<std::string> violatedObjectives;
    /// Z3 effort counters summed across the checks of this check() call.
    SolverStats stats;

    /// True when a rung produced a model (retained for eval calls).
    bool sat() const {
      return rung == SolveRung::kWarmStart || rung == SolveRung::kFull ||
             rung == SolveRung::kNoMinimality || rung == SolveRung::kHardOnly;
    }
  };

  /// Runs the search; on sat, the model is retained for eval calls. May be
  /// called again after adding constraints (incremental re-solve): each call
  /// replaces the model and re-reads the deadline.
  Result check();

  /// Evaluates a boolean expression in the last model (model completion on).
  bool evalBool(const z3::expr& expr) const;
  /// Evaluates an integer expression in the last model.
  int evalInt(const z3::expr& expr) const;

  /// Named variables created so far (for logging).
  std::size_t numVars() const { return vars_.size(); }

 private:
  struct Cost;
  struct Search;
  enum class Bound { kSat, kUnsat, kHardUnsat, kStopped };

  /// Checks `cost <= bound` behind a fresh assumption literal; a bound at or
  /// above the cost's summed weight is one check without assumptions.
  Bound tryBound(Search& search, const Cost& cost, unsigned long long bound);
  /// Minimizes `cost` from `lo`, a proved lower bound: kSat when the
  /// search's model is optimal for it.
  Bound minimize(Search& search, const Cost& cost, unsigned long long lo);
  /// Applies the remaining budget as a Z3 timeout; false if already expired.
  bool applyBudget();
  /// Fills the user softs' satisfied/violated labels from the current model.
  void reportObjectives(Result& result) const;

  struct Soft {
    z3::expr expr;
    std::string label;
    unsigned weight;
    SoftKind kind;
  };

  const SolverKind kind_;
  z3::context ctx_;
  z3::solver solver_;
  /// The hard constraints as added: the solver also holds the cost bounds'
  /// implications, which are not part of the encoding.
  z3::expr_vector hard_;
  std::map<std::string, z3::expr> vars_;
  std::vector<Soft> softs_;
  /// Values replaced by reassign(). Declared after ctx_, so released before
  /// the context is deleted.
  std::vector<z3::expr> retired_;
  std::optional<z3::model> model_;
  /// Optima of the last check that proved them: still lower bounds after
  /// further addHard() calls; cleared by addSoft().
  std::optional<unsigned long long> optimum_;
  std::optional<unsigned long long> userOptimum_;
  SolverStats effort_;  // Z3's counters so far (they add up over checks)
  Deadline deadline_;
  int injectUnknown_ = 0;
};

/// Mangles a list of name parts into a deterministic variable name, e.g.
/// mangle({"rm", "B", "bgp", "Adj", "A"}) == "rm_B_bgp_Adj_A". Characters
/// that are unfriendly to debugging output ('/', ' ') are replaced.
std::string mangle(const std::vector<std::string>& parts);

}  // namespace aed
