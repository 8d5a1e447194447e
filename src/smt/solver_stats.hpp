// Per-check solver introspection data (introspection layer, DESIGN.md §12).
//
// Deliberately free of any Z3 include: core/aed.hpp embeds these types in
// AedResult::subproblems so callers can see *why* a destination was solved
// the way it was (which ladder rung answered, how hard the solver worked)
// without the public API growing a z3++.h dependency. SmtSession fills them
// in from z3::stats after every check (smt/session.cpp is the only capture
// point).
#pragma once

#include <cstdint>
#include <string>

namespace aed {

/// How far a subproblem's search over cost bounds got (DESIGN.md §5/§6):
/// the optimum at the first bound, the proved optimum, or one of the
/// anytime degradation rungs.
enum class SolveRung {
  kNone,          // no check ran: the subproblem threw first, or the input
                  // already satisfies its policies and the empty patch was
                  // given without a solver (core/aed.hpp)
  kWarmStart,     // the first bound, the previous optimum, was satisfiable
  kFull,          // the optimum over user + minimality softs was proved
  kNoMinimality,  // degraded: stopped after the user-objective optimum
  kHardOnly,      // degraded: stopped with only a model of the hard
                  // constraints
  kUnsat,         // hard constraints unsatisfiable (no rung can help)
  kGaveUp,        // nothing decided: timed out / returned unknown
};

inline const char* solveRungName(SolveRung rung) {
  switch (rung) {
    case SolveRung::kNone: return "none";
    case SolveRung::kWarmStart: return "warm-start";
    case SolveRung::kFull: return "full";
    case SolveRung::kNoMinimality: return "no-minimality";
    case SolveRung::kHardOnly: return "hard-only";
    case SolveRung::kUnsat: return "unsat";
    case SolveRung::kGaveUp: return "gave-up";
  }
  return "none";
}

/// Z3 effort counters and encoding sizes for the check(s) behind one
/// subproblem answer. Counters are summed across the bound checks of a
/// single SmtSession::check() call; sizes describe the encoding that
/// produced the final answer (cost-bound literals and constraints are not
/// part of it).
struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t restarts = 0;
  // Every named variable the session created, bool and int: the delta,
  // route-record, forwarding, reach and distance variables (cost-bound
  // literals excluded).
  std::uint64_t vars = 0;
  std::uint64_t assertions = 0;  // hard + soft assertions encoded
  std::uint64_t checks = 0;      // solver check() invocations (bound checks)

  /// Element-wise accumulate (for totals across repair rounds).
  void accumulate(const SolverStats& other) {
    conflicts += other.conflicts;
    decisions += other.decisions;
    restarts += other.restarts;
    vars = other.vars != 0 ? other.vars : vars;
    assertions = other.assertions != 0 ? other.assertions : assertions;
    checks += other.checks;
  }
};

}  // namespace aed
