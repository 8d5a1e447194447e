// Thin wrapper over the Z3 C++ API.
//
// One SmtSession owns one z3::context and one z3::optimize (MaxSMT) solver.
// Z3 contexts are not thread-safe, so the parallel per-destination engine
// (§8) creates one session per task. The session also keeps a registry of
// named variables so that the sketch encoder and the objective translator
// can refer to the same delta variables by name, and a registry of soft
// constraints so callers can report which management objectives were
// satisfied by the chosen model.
//
// Sessions are incremental: constraints may be added and check() re-run any
// number of times (the persistent SubproblemSolver keeps one session alive
// across repair rounds and only pushes new blocked-delta clauses).
//
// Incremental re-checks use a warm-start fast path. addHard() and addSoft()
// are the only ways to change a session, so its constraints only grow: the
// feasible set shrinks and the optimal soft-violation cost cannot decrease.
// check() therefore first asks a plain SAT query whether a model at the
// previous optimal cost still exists (a pseudo-boolean bound over the soft
// constraints); if yes, that model is provably optimal and the full MaxSMT
// engine is skipped entirely. Only addSoft() resets the remembered optimum
// (a new soft changes the cost function).
//
// Resilience: a session can be given a wall-clock Deadline (wired to Z3's
// `timeout` parameter), and check() falls back through a degradation ladder
// when the full MaxSMT query times out or goes unknown:
//   1. full MaxSMT (user objectives + minimality softs)     → SolveRung::kFull
//   2. MaxSMT with the minimality softs dropped             → kNoMinimality
//   3. plain SAT over the hard constraints only             → kHardOnly
//   4. give up: timed out (deadline expired) or unknown     → kGaveUp
// Every rung still satisfies the hard policy constraints, so a
// policy-compliant (if less manageable) patch is returned whenever Z3 can
// decide satisfiability at all within the budget.
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
#include <vector>

#include "smt/solver_stats.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace aed {

class SmtSession {
 public:
  SmtSession() : opt_(ctx_), probe_(ctx_) {}

  SmtSession(const SmtSession&) = delete;
  SmtSession& operator=(const SmtSession&) = delete;

  // ---- variable factories -------------------------------------------------

  /// Creates (or returns the previously created) named boolean variable.
  z3::expr boolVar(const std::string& name);
  /// Creates (or returns the previously created) named integer variable.
  z3::expr intVar(const std::string& name);
  /// True if a variable with this name was created.
  bool hasVar(const std::string& name) const;
  /// Looks up a previously created variable; throws if unknown.
  z3::expr var(const std::string& name) const;

  /// Fresh anonymous variable for encoder internals.
  z3::expr freshBool(const std::string& stem);

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
  /// instead of re-encoding from scratch. The constraint is mirrored into
  /// the persistent plain-SAT probe solver backing the warm-start fast
  /// path, so warm re-checks are true incremental SAT calls (learned
  /// lemmas survive across repair rounds).
  void addHard(const z3::expr& constraint) {
    opt_.add(constraint);
    probe_.add(constraint);
  }

  /// Classification of a soft constraint for the degradation ladder: user
  /// objectives survive one rung longer than the internal per-delta
  /// minimality pressure.
  enum class SoftKind { kUser, kMinimality };

  /// Adds a weighted soft constraint labeled with an objective name.
  /// Returns the index of the registered soft constraint. Invalidates the
  /// warm-start optimum (new softs change the cost function).
  std::size_t addSoft(const z3::expr& constraint, unsigned weight,
                      const std::string& label,
                      SoftKind kind = SoftKind::kUser);

  /// Randomizes the solver's decision phase. Used by the NetComplete-like
  /// clean-slate baseline: a synthesizer that does not anchor on the current
  /// configuration picks arbitrary values for unconstrained constructs;
  /// Z3's default false-bias would otherwise make the baseline look
  /// artificially incremental.
  void randomizePhase(unsigned seed);

  // ---- resilience ----------------------------------------------------------

  /// Caps all subsequent check() work at this wall-clock deadline (the
  /// remaining budget is passed to Z3 as its `timeout` parameter, re-read
  /// before each ladder rung). Unlimited by default.
  void setDeadline(const Deadline& deadline) { deadline_ = deadline; }

  /// Deterministic fault injection for tests: the next `count` full MaxSMT
  /// checks report "unknown" without calling Z3, forcing check() down the
  /// degradation ladder (which still runs for real).
  void injectUnknown(int count) { injectUnknown_ = count; }

  // ---- solving --------------------------------------------------------------

  struct Result {
    /// Introspection (§12) and the answer itself: the ladder rung that
    /// answered and why. kWarmStart and kFull are the MaxSMT optimum (the
    /// warm start proves the previous optimum still attainable with one SAT
    /// query), kNoMinimality and kHardOnly are degraded models, kUnsat proves
    /// the hard constraints unsatisfiable, and kGaveUp means no rung decided.
    SolveRung rung = SolveRung::kNone;
    std::string rungReason;
    /// On kGaveUp: kTimeout when the wall-clock deadline expired, otherwise
    /// kSolverUnknown. An "unknown" must never be treated as a proof of
    /// unsatisfiability.
    ErrorCode code = ErrorCode::kNone;
    /// Labels of soft constraints satisfied / violated by the model.
    std::vector<std::string> satisfiedObjectives;
    std::vector<std::string> violatedObjectives;
    /// Z3 effort counters summed across the rung attempts of this check()
    /// call.
    SolverStats stats;

    /// True when a rung produced a model (retained for eval calls).
    bool sat() const {
      return rung == SolveRung::kWarmStart || rung == SolveRung::kFull ||
             rung == SolveRung::kNoMinimality || rung == SolveRung::kHardOnly;
    }
  };

  /// Runs the MaxSMT query, falling down the degradation ladder if needed.
  /// On sat, the model is retained for eval calls. Re-entrant: check() may
  /// be called again after adding further constraints (incremental
  /// re-solve); each call replaces the retained model and re-reads the
  /// deadline, so a persistent session can be re-checked once per repair
  /// round under a fresh budget.
  Result check();

  /// Evaluates a boolean expression in the last model (model completion on).
  bool evalBool(const z3::expr& expr) const;
  /// Evaluates an integer expression in the last model.
  int evalInt(const z3::expr& expr) const;

  /// Statistics of the last check (for benches).
  std::size_t numVars() const { return vars_.size(); }

 private:
  /// Applies the remaining budget as a Z3 timeout; false if already expired.
  template <typename Solver>
  bool applyBudget(Solver& solver);
  /// Fills satisfied/violated objective labels from the current model.
  void reportObjectives(Result& result) const;
  /// Incremental fast path: one plain SAT query asking for a model whose
  /// soft-violation cost is at most the last recorded optimum. Fills
  /// `result` and returns true on success; false falls through to the full
  /// MaxSMT rung (optimum grew, weights overflow, or the probe went
  /// unknown).
  bool tryWarmCheck(Result& result);

  struct SoftInfo {
    std::string label;
    unsigned weight = 1;
    SoftKind kind = SoftKind::kUser;
  };

  z3::context ctx_;
  z3::optimize opt_;
  /// Plain-SAT mirror of the hard constraints (soft constraints are not
  /// asserted here). Persistent so warm-start re-checks solve incrementally
  /// instead of rebuilding; cost bounds are activated per check through
  /// assumption indicators, never asserted permanently.
  z3::solver probe_;
  std::map<std::string, z3::expr> vars_;
  std::vector<z3::expr> softExprs_;
  /// Values replaced by reassign(). Declared after ctx_, so released before
  /// the context is deleted.
  std::vector<z3::expr> retired_;
  std::vector<SoftInfo> softInfos_;
  std::optional<z3::model> model_;
  /// Optimal soft-violation cost of the last non-degraded check. Still a
  /// valid lower bound after further addHard() calls (the feasible set only
  /// shrinks); cleared by addSoft(), which changes the cost function.
  std::optional<unsigned long long> lastOptimalCost_;
  Deadline deadline_;
  int injectUnknown_ = 0;
  int freshCounter_ = 0;
};

/// Mangles a list of name parts into a deterministic variable name, e.g.
/// mangle({"rm", "B", "bgp", "Adj", "A"}) == "rm_B_bgp_Adj_A". Characters
/// that are unfriendly to debugging output ('/', ' ') are replaced.
std::string mangle(const std::vector<std::string>& parts);

}  // namespace aed
