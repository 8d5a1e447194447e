#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smt/session.hpp"
#include "util/rng.hpp"

namespace aed {
namespace {

TEST(SmtSession, VariablesAreMemoized) {
  SmtSession session;
  const z3::expr a1 = session.boolVar("a");
  const z3::expr a2 = session.boolVar("a");
  EXPECT_TRUE(z3::eq(a1, a2));
  EXPECT_TRUE(z3::eq(session.var("a"), a1));
  EXPECT_THROW(session.var("b"), AedError);
}

TEST(SmtSession, HardConstraintsSolve) {
  SmtSession session;
  const z3::expr x = session.intVar("x");
  session.addHard(x > 3);
  session.addHard(x < 5);
  const auto result = session.check();
  ASSERT_TRUE(result.sat());
  EXPECT_EQ(session.evalInt(x), 4);
}

TEST(SmtSession, UnsatReported) {
  SmtSession session;
  const z3::expr a = session.boolVar("a");
  session.addHard(a);
  session.addHard(!a);
  EXPECT_FALSE(session.check().sat());
}

TEST(SmtSession, MaxSmtPrefersHigherWeight) {
  SmtSession session;
  const z3::expr a = session.boolVar("a");
  const z3::expr b = session.boolVar("b");
  session.addHard(a != b);  // exactly one of them
  session.addSoft(a, 1, "want-a");
  session.addSoft(b, 10, "want-b");
  const auto result = session.check();
  ASSERT_TRUE(result.sat());
  EXPECT_FALSE(session.evalBool(a));
  EXPECT_TRUE(session.evalBool(b));
  ASSERT_EQ(result.satisfiedObjectives.size(), 1u);
  EXPECT_EQ(result.satisfiedObjectives[0], "want-b");
  ASSERT_EQ(result.violatedObjectives.size(), 1u);
  EXPECT_EQ(result.violatedObjectives[0], "want-a");
}

TEST(SmtSession, MaxSmtMaximizesSatisfiedCount) {
  SmtSession session;
  // c forces exactly 2 of 3 unit-weight softs; the solver must satisfy both
  // satisfiable ones.
  const z3::expr a = session.boolVar("a");
  const z3::expr b = session.boolVar("b");
  const z3::expr c = session.boolVar("c");
  session.addHard(!c);
  session.addSoft(a, 1, "a");
  session.addSoft(b, 1, "b");
  session.addSoft(c, 1, "c");
  const auto result = session.check();
  ASSERT_TRUE(result.sat());
  EXPECT_EQ(result.satisfiedObjectives.size(), 2u);
  EXPECT_EQ(result.violatedObjectives.size(), 1u);
}

TEST(SmtSession, EvalBeforeCheckThrows) {
  SmtSession session;
  EXPECT_THROW(session.evalBool(session.boolVar("a")), AedError);
}

TEST(SmtSession, ModelCompletionDefaultsUnconstrainedVars) {
  SmtSession session;
  session.addHard(session.boolVar("used"));
  ASSERT_TRUE(session.check().sat());
  // "unused" never occurs in any constraint; completion yields a value.
  EXPECT_NO_THROW(session.evalBool(session.boolVar("unused")));
}

// ---- the bounded search against z3::optimize -------------------------------

/// The optimal cost z3::optimize finds for the session's problem, or -1 when
/// it answers unsat. Built in the session's context, freed before it.
long long optimizeCost(const SmtSession& session) {
  const SmtSession::Problem problem = session.problem();
  z3::optimize optimize(problem.hard.ctx());
  for (const z3::expr& hard : problem.hard) optimize.add(hard);
  for (const auto& [soft, weight] : problem.softs) {
    optimize.add_soft(soft, weight);
  }
  if (optimize.check() != z3::sat) return -1;
  const z3::model model = optimize.get_model();
  long long cost = 0;
  for (const auto& [soft, weight] : problem.softs) {
    if (!model.eval(soft, true).is_true()) cost += weight;
  }
  return cost;
}

/// The cost of the session's last model, or -1 when its check was not sat.
long long sessionCost(const SmtSession& session,
                      const SmtSession::Result& result) {
  if (!result.sat()) return -1;
  long long cost = 0;
  for (const auto& [soft, weight] : session.problem().softs) {
    if (!session.evalBool(soft)) cost += weight;
  }
  return cost;
}

/// A random clause of 1-3 literals over `vars`.
z3::expr randomClause(const std::vector<z3::expr>& vars, Rng& rng) {
  z3::expr_vector literals(vars[0].ctx());
  const std::size_t width = 1 + rng.index(3);
  for (std::size_t i = 0; i < width; ++i) {
    const z3::expr& var = vars[rng.index(vars.size())];
    literals.push_back(rng.chance(0.5) ? var : !var);
  }
  return z3::mk_or(literals);
}

/// A seeded random weighted instance shaped like a subproblem: a few hard
/// clauses, user softs weighing 1000-3000 (scaled objective weights) and one
/// unit minimality soft per variable preferring it false.
void buildRandomInstance(SmtSession& session, std::vector<z3::expr>& vars,
                         Rng& rng) {
  const std::size_t count = 4 + rng.index(8);
  for (std::size_t i = 0; i < count; ++i) {
    vars.push_back(session.boolVar("x" + std::to_string(i)));
  }
  const std::size_t hard = 1 + rng.index(5);
  for (std::size_t i = 0; i < hard; ++i) {
    session.addHard(randomClause(vars, rng));
  }
  const std::size_t user = rng.index(4);
  for (std::size_t i = 0; i < user; ++i) {
    session.addSoft(randomClause(vars, rng),
                    1000 * static_cast<unsigned>(1 + rng.index(3)),
                    "user" + std::to_string(i));
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    session.addSoft(!vars[i], 1, "min-change:x" + std::to_string(i),
                    SmtSession::SoftKind::kMinimality);
  }
}

TEST(SmtSession, RandomWeightedInstancesMatchOptimize) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SmtSession session;
    std::vector<z3::expr> vars;
    Rng rng(seed);
    buildRandomInstance(session, vars, rng);
    const SmtSession::Result first = session.check();
    EXPECT_EQ(sessionCost(session, first), optimizeCost(session))
        << "seed " << seed << ": " << first.rungReason;
    if (!first.sat()) continue;

    // A re-check after addHard(): the optimum can only grow, and the warm
    // start must not hide it.
    session.addHard(randomClause(vars, rng));
    const SmtSession::Result second = session.check();
    EXPECT_EQ(sessionCost(session, second), optimizeCost(session))
        << "seed " << seed << " after addHard: " << second.rungReason;
    if (second.sat()) {
      EXPECT_TRUE(second.rung == SolveRung::kWarmStart ||
                  second.rung == SolveRung::kFull)
          << solveRungName(second.rung);
    }
  }
}

TEST(SmtSession, UnsatInstanceMatchesOptimize) {
  SmtSession session;
  std::vector<z3::expr> vars;
  Rng rng(7);
  buildRandomInstance(session, vars, rng);
  session.addHard(vars[0] || vars[1]);
  session.addHard(!vars[0]);
  session.addHard(!vars[1]);
  const SmtSession::Result result = session.check();
  EXPECT_EQ(result.rung, SolveRung::kUnsat) << result.rungReason;
  EXPECT_EQ(optimizeCost(session), -1);
}

// Both solver kinds find the optimum, also with a randomized phase (which
// must not hand the kernel the SAT solver's `phase`, a name it refuses).
TEST(SmtSession, BothSolverKindsMatchOptimizeWithRandomizedPhase) {
  for (const SmtSession::SolverKind kind :
       {SmtSession::SolverKind::kKernel, SmtSession::SolverKind::kCombined}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SmtSession session(kind);
      session.randomizePhase(static_cast<unsigned>(seed));
      std::vector<z3::expr> vars;
      Rng rng(seed);
      buildRandomInstance(session, vars, rng);
      const SmtSession::Result result = session.check();
      EXPECT_EQ(sessionCost(session, result), optimizeCost(session))
          << "kind " << static_cast<int>(kind) << " seed " << seed << ": "
          << result.rungReason;
    }
  }
}

// Weights above INT_MAX in sum cannot be 32-bit pseudo-boolean coefficients:
// the session refuses them, naming the soft.
TEST(SmtSession, SummedSoftWeightAboveIntMaxIsInvalidInput) {
  SmtSession session;
  const z3::expr a = session.boolVar("a");
  session.addSoft(a, 2000000000u, "heavy");
  try {
    session.addSoft(!a, 2000000000u, "heavier");
    FAIL() << "expected kInvalidInput";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("heavier"), std::string::npos)
        << e.what();
  }
}

TEST(Mangle, JoinsAndSanitizes) {
  EXPECT_EQ(mangle({"rm", "B", "bgp.65002", "Adj", "A"}),
            "rm_B_bgp.65002_Adj_A");
  EXPECT_EQ(mangle({"add", "r0", "10.0.0.0/8"}), "add_r0_10.0.0.0.8");
  EXPECT_EQ(mangle({}), "");
}

}  // namespace
}  // namespace aed
