// Phase-I revised simplex solver for { Ax = b, x >= 0 } feasibility.
//
// The paper delegates LP feasibility to the Z3 SMT solver; this repository
// ships its own solver so the pipeline is self-contained. The implementation
// is a sparse revised simplex: the basis is held as a Markowitz-ordered
// sparse LU factorization with Forrest-Tomlin column-replacement updates
// (lp/basis_lu.h), FTRAN/BTRAN run against the L/U factors plus update file,
// the dual vector is maintained incrementally across pivots, and pricing is
// Devex (reference-framework weights, updated sparsely through the pivot
// row) over a rotating candidate list — classic rotating partial pricing
// stays available behind SimplexOptions::pricing for A/B comparison. After
// feasibility is reached, an optional canonicalization phase drives the
// point to the unique minimizer of a fixed pseudo-random objective so the
// reported solution does not depend on the pricing rule, warm start, or any
// other search-path detail. See docs/solver.md. The LPs have few
// constraints — tens to a few thousand — while the variable count ranges
// from a handful for Hydra's region partitioning to millions for DataSynth's
// grid partitioning, which the pricing candidate lists absorb gracefully.

#ifndef HYDRA_LP_SIMPLEX_H_
#define HYDRA_LP_SIMPLEX_H_

#include <vector>

#include "common/status.h"
#include "lp/model.h"

namespace hydra {

enum class SimplexPricing {
  // Devex reference-framework pricing (Forrest & Goldfarb): enter the
  // column maximizing d_j^2 / gamma_j. Default; iteration counts track ~m.
  kDevex,
  // Rotating partial pricing over a candidate list (the PR 1 design):
  // enter the most negative reduced cost seen in the current block.
  kPartial,
};

// A basis exported by one solve and importable as a warm start by another.
// Only meaningful for a problem with the same number of rows and variables;
// the solver re-validates (factorizes and checks x_B >= 0) on import and
// silently falls back to the cold all-artificial start when the basis is
// incompatible with the new problem.
struct SimplexBasis {
  int num_rows = 0;
  int num_vars = 0;
  // basic[row]: index of the structural variable pivoting on that row, or
  // -1 when the row is covered by its own artificial.
  std::vector<int> basic;

  bool empty() const { return basic.empty(); }
};

struct SimplexOptions {
  // Hard budget on the number of structural variables; mirrors the paper's
  // observation that the solver "crashes" on DataSynth's billion-variable
  // formulations. Exceeding it returns RESOURCE_EXHAUSTED.
  uint64_t max_variables = 50'000'000;
  // Pivoting iteration budget across both phases (0 = automatic:
  // 80*m + 10000).
  int max_iterations = 0;
  // Feasibility tolerance.
  double tolerance = 1e-7;
  // Forrest-Tomlin updates between refactorizations (0 = automatic: 256).
  // The factorization is also rebuilt early if the update file's nonzero
  // count outgrows the basis.
  int refactor_interval = 0;
  // Entering-variable rule; kPartial is kept for the ablation bench.
  SimplexPricing pricing = SimplexPricing::kDevex;
  // After phase I, polish the feasible point to the unique minimizer of a
  // fixed pseudo-random positive objective. This makes the reported
  // solution a function of the problem alone — identical across pricing
  // rules, warm vs cold starts, and refactorization schedules — at the
  // cost of roughly one extra solve (the polish is a full phase II walk to
  // the canonical vertex, and phase I must first grind the artificial mass
  // to the fp floor instead of stopping at the feasibility tolerance).
  // Off by default: regeneration wants the fast path, and its output is
  // already byte-identical across runs and thread counts for a fixed
  // configuration. Turn on to make solutions comparable across solver
  // configurations (pricing A/B, warm vs cold starts).
  bool canonicalize = false;
  // Optional warm start (not owned; may be null or empty). Incompatible or
  // numerically unusable bases fall back to the cold start.
  const SimplexBasis* warm_start = nullptr;
  // When non-null, receives the final basis in canonical form for seeding
  // the next solve.
  SimplexBasis* export_basis = nullptr;
};

// Returns a basic feasible solution of { Ax = b, x >= 0 }, or:
//  * FAILED_PRECONDITION if the system is infeasible,
//  * RESOURCE_EXHAUSTED if it exceeds the variable or iteration budget.
StatusOr<LpSolution> SolveFeasibility(const LpProblem& problem,
                                      const SimplexOptions& options = {});

}  // namespace hydra

#endif  // HYDRA_LP_SIMPLEX_H_
