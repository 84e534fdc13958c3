// Stress tests for the sparse revised simplex: degenerate and cycling-prone
// systems, structured infeasibility, and iteration bounds on a ~2k-variable
// feasibility instance (guarding the partial-pricing design against
// iteration-count regressions).

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace hydra {
namespace {

LpConstraint MakeConstraint(std::vector<int> vars, double rhs) {
  LpConstraint c;
  for (int v : vars) c.AddTerm(v, 1.0);
  c.rhs = rhs;
  return c;
}

TEST(SimplexStressTest, DegenerateZeroRhsChain) {
  // Every constraint has rhs 0, so every basic solution is fully degenerate
  // and every pivot has ratio 0 — the classic cycling trap. The solver must
  // still terminate (Bland fallback) and report the all-zero solution.
  LpProblem p;
  const int n = 40;
  p.AddVariables(n);
  for (int i = 0; i + 1 < n; ++i) {
    p.AddConstraint(MakeConstraint({i, i + 1}, 0));
  }
  auto sol = SolveFeasibility(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  for (double v : sol->values) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(SimplexStressTest, DegenerateDuplicatedConstraints) {
  // Heavy redundancy: the same constraint repeated many times makes most
  // bases singular and most pivots degenerate.
  LpProblem p;
  p.AddVariables(6);
  for (int rep = 0; rep < 12; ++rep) {
    p.AddConstraint(MakeConstraint({0, 1, 2}, 30));
    p.AddConstraint(MakeConstraint({2, 3, 4}, 50));
  }
  p.AddConstraint(MakeConstraint({0, 1, 2, 3, 4, 5}, 100));
  auto sol = SolveFeasibility(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(p.MaxViolation(sol->values), 1e-6);
  for (double v : sol->values) EXPECT_GE(v, -1e-9);
}

TEST(SimplexStressTest, TiedColumnsTerminate) {
  // Many identical columns create reduced-cost ties across every pricing
  // block; the candidate list must not loop among them.
  LpProblem p;
  const int n = 200;
  p.AddVariables(n);
  LpConstraint all;
  for (int j = 0; j < n; ++j) all.AddTerm(j, 1.0);
  all.rhs = 1000;
  p.AddConstraint(std::move(all));
  p.AddConstraint(MakeConstraint({0, 1}, 0));
  auto sol = SolveFeasibility(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(p.MaxViolation(sol->values), 1e-6);
}

TEST(SimplexStressTest, StructuredInfeasibleCycle) {
  // x0+x1 = 10, x1+x2 = 10, x0+x2 = 10 forces x0+x1+x2 = 15; asserting 14
  // is a contradiction that only surfaces by combining all four rows.
  LpProblem p;
  p.AddVariables(3);
  p.AddConstraint(MakeConstraint({0, 1}, 10));
  p.AddConstraint(MakeConstraint({1, 2}, 10));
  p.AddConstraint(MakeConstraint({0, 2}, 10));
  p.AddConstraint(MakeConstraint({0, 1, 2}, 14));
  auto sol = SolveFeasibility(p);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SimplexStressTest, InfeasibleAfterManyPivots) {
  // A long feasible chain plus one contradicting total: infeasibility must
  // be detected after the solver has already done real pivoting work (and
  // therefore through the eta file, not the initial identity basis).
  LpProblem p;
  const int n = 120;
  p.AddVariables(n);
  for (int i = 0; i + 1 < n; i += 2) {
    p.AddConstraint(MakeConstraint({i, i + 1}, 10));
  }
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  p.AddConstraint(MakeConstraint(all, 10.0 * (n / 2) - 7));
  auto sol = SolveFeasibility(p);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SimplexStressTest, TwoThousandVariableIterationBound) {
  // Random feasible instance built from a known witness. The solver must
  // find a feasible point in a small multiple of m iterations — candidate
  // list pricing trades per-iteration cost for slightly more pivots, and
  // this pins the trade at <= 5m for phase I (observed ~3m across seeds).
  // The canonicalization phase then walks to the unique canonical vertex;
  // the total gets a looser bound.
  const int n = 2000;
  const int m = 200;
  Rng rng(7);
  std::vector<int64_t> witness(n);
  for (int j = 0; j < n; ++j) witness[j] = rng.NextInt(0, 1000000);
  LpProblem p;
  p.AddVariables(n);
  for (int i = 0; i < m; ++i) {
    LpConstraint c;
    int64_t rhs = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.1)) {
        c.AddTerm(j, 1.0);
        rhs += witness[j];
      }
    }
    c.rhs = static_cast<double>(rhs);
    p.AddConstraint(std::move(c));
  }
  auto sol = SolveFeasibility(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(p.MaxViolation(sol->values), 1e-4);
  for (double v : sol->values) EXPECT_GE(v, -1e-9);
  EXPECT_LE(sol->phase1_iterations, 5 * m);
  EXPECT_LE(sol->iterations, 20 * m);
}

TEST(SimplexStressTest, WideAndShallowStaysFast) {
  // 20k variables over 20 rows: the regime DataSynth's grid formulations
  // live in. Feasibility plus the iteration bound double as a smoke test
  // that partial pricing never degenerates into full n-column scans per
  // pivot (which would time out the suite long before failing).
  const int n = 20000;
  const int m = 20;
  Rng rng(13);
  std::vector<int64_t> witness(n);
  for (int j = 0; j < n; ++j) witness[j] = rng.NextInt(0, 1000);
  LpProblem p;
  p.AddVariables(n);
  for (int i = 0; i < m; ++i) {
    LpConstraint c;
    int64_t rhs = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.05)) {
        c.AddTerm(j, 1.0);
        rhs += witness[j];
      }
    }
    c.rhs = static_cast<double>(rhs);
    p.AddConstraint(std::move(c));
  }
  auto sol = SolveFeasibility(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(p.MaxViolation(sol->values), 1e-5);
  EXPECT_LE(sol->phase1_iterations, 10 * m);
  EXPECT_LE(sol->iterations, 40 * m);
}

}  // namespace
}  // namespace hydra
