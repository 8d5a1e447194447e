#include <gtest/gtest.h>

#include "smt/session.hpp"

namespace aed {
namespace {

TEST(SmtSession, VariablesAreMemoized) {
  SmtSession session;
  const z3::expr a1 = session.boolVar("a");
  const z3::expr a2 = session.boolVar("a");
  EXPECT_TRUE(z3::eq(a1, a2));
  EXPECT_TRUE(session.hasVar("a"));
  EXPECT_FALSE(session.hasVar("b"));
  EXPECT_TRUE(z3::eq(session.var("a"), a1));
  EXPECT_THROW(session.var("b"), AedError);
}

TEST(SmtSession, FreshVarsAreDistinct) {
  SmtSession session;
  const z3::expr f1 = session.freshBool("tmp");
  const z3::expr f2 = session.freshBool("tmp");
  EXPECT_FALSE(z3::eq(f1, f2));
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

TEST(Mangle, JoinsAndSanitizes) {
  EXPECT_EQ(mangle({"rm", "B", "bgp.65002", "Adj", "A"}),
            "rm_B_bgp.65002_Adj_A");
  EXPECT_EQ(mangle({"add", "r0", "10.0.0.0/8"}), "add_r0_10.0.0.0.8");
  EXPECT_EQ(mangle({}), "");
}

}  // namespace
}  // namespace aed
