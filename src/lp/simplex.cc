#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "lp/basis_lu.h"

namespace hydra {

// One LU rebuild from the current basis columns — the solver's dominant
// periodic cost; its tail is what degrades a solve.
HYDRA_METRIC_HISTOGRAM(g_refactorize_us, "lp/refactorize_us");

namespace {

// Compressed-sparse-column copy of the constraint matrix (rows with b < 0
// negated so that b >= 0, as phase-I requires). Built in two passes —
// count, prefix-sum, scatter — so the whole matrix lives in three flat
// arrays instead of one heap allocation per column. Devex pricing also
// needs the transpose (compressed sparse rows) to push pivot-row weight
// updates through the matrix sparsely; it is built on demand.
struct ColumnMatrix {
  int m = 0;
  int n = 0;
  std::vector<int> col_ptr;   // n + 1
  std::vector<int> row_idx;   // nnz
  std::vector<double> val;    // nnz
  std::vector<double> b;
  // CSR mirror (empty unless BuildRows ran).
  std::vector<int> row_ptr;   // m + 1
  std::vector<int> col_idx;   // nnz
  std::vector<double> rval;   // nnz

  int ColNnz(int j) const { return col_ptr[j + 1] - col_ptr[j]; }

  void BuildRows() {
    row_ptr.assign(m + 1, 0);
    const int nnz = col_ptr[n];
    col_idx.resize(nnz);
    rval.resize(nnz);
    for (int t = 0; t < nnz; ++t) ++row_ptr[row_idx[t] + 1];
    for (int i = 0; i < m; ++i) row_ptr[i + 1] += row_ptr[i];
    std::vector<int> fill(row_ptr.begin(), row_ptr.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int t = col_ptr[j]; t < col_ptr[j + 1]; ++t) {
        const int slot = fill[row_idx[t]]++;
        col_idx[slot] = j;
        rval[slot] = val[t];
      }
    }
  }
};

ColumnMatrix BuildColumns(const LpProblem& p) {
  ColumnMatrix cm;
  cm.m = p.num_constraints();
  cm.n = p.num_vars();
  cm.b.resize(cm.m);
  cm.col_ptr.assign(cm.n + 1, 0);
  for (const LpConstraint& c : p.constraints()) {
    for (int v : c.vars) ++cm.col_ptr[v + 1];
  }
  for (int j = 0; j < cm.n; ++j) cm.col_ptr[j + 1] += cm.col_ptr[j];
  cm.row_idx.resize(cm.col_ptr[cm.n]);
  cm.val.resize(cm.col_ptr[cm.n]);
  std::vector<int> fill(cm.col_ptr.begin(), cm.col_ptr.end() - 1);
  for (int r = 0; r < cm.m; ++r) {
    const LpConstraint& c = p.constraints()[r];
    const double sign = c.rhs < 0 ? -1.0 : 1.0;
    cm.b[r] = sign * c.rhs;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      const int slot = fill[c.vars[i]]++;
      cm.row_idx[slot] = r;
      cm.val[slot] = sign * c.coeffs[i];
    }
  }
  // Duplicate (var, row) pairs are left as-is: every consumer accumulates
  // with +=, so repeated terms sum exactly as the model intends.
  return cm;
}

// Fixed pseudo-random positive objective for the canonicalization phase:
// a deterministic hash of the column index mapped into [1, 2). Generic
// weights make the minimizer over { Ax = b, x >= 0 } a unique vertex, so
// the polished solution is a function of the problem alone.
double CanonicalWeight(int j) {
  uint64_t z = static_cast<uint64_t>(j) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return 1.0 + static_cast<double>(z >> 11) * 0x1.0p-53;
}

// Revised simplex over a Markowitz sparse LU of the basis with
// Forrest-Tomlin updates (lp/basis_lu.h). Phase I minimizes the artificial
// mass to find a feasible point; the optional canonicalization phase then
// minimizes a fixed generic objective so the reported solution does not
// depend on pricing, warm starts, or refactorization timing. Pricing is
// Devex by default, with rotating partial pricing selectable for A/B runs;
// both work a bounded candidate list so wide problems never pay full
// n-column scans per pivot. See docs/solver.md.
class RevisedSimplex {
 public:
  RevisedSimplex(ColumnMatrix cm, const SimplexOptions& options)
      : cm_(std::move(cm)), options_(options) {
    m_ = cm_.m;
    n_ = cm_.n;
    basis_.resize(m_);
    in_basis_.assign(n_, false);
    candidate_flag_.assign(n_, 0);
    double bmax = 1.0;
    for (double v : cm_.b) bmax = std::max(bmax, std::fabs(v));
    tol_ = options_.tolerance * bmax;
    // When canonicalizing, phase I pivots until the artificial mass is
    // zero at the working precision (a few ulps of the b scale), not
    // merely under tol_: the leftover mass is exactly the solution's
    // infeasibility, and pinning near-zero artificials keeps the
    // canonicalization phase exact. Without it, stopping at tol_ (the PR 1
    // behaviour) saves the grinding tail pivots. The looser tol_ always
    // decides feasible-vs-infeasible when pricing runs out of improving
    // columns first.
    feas_zero_ = options_.canonicalize ? 1e-14 * bmax : tol_;
    price_tol_ = options_.tolerance;
    work_.assign(m_, 0.0);
    rho_.assign(m_, 0.0);
    y_.assign(m_, 0.0);
    refactor_interval_ =
        options_.refactor_interval > 0 ? options_.refactor_interval : 256;
    base_growth_nnz_ = 16 * static_cast<uint64_t>(m_) + 1024;
    if (options_.pricing == SimplexPricing::kDevex) {
      cm_.BuildRows();
      devex_.assign(n_, 1.0);
      alpha_.assign(n_, 0.0);
    }
    // Unit artificial columns as slices of one shared identity: the column
    // of artificial r is the length-1 slice {art_rows_[r], art_vals_[r]}.
    art_rows_.resize(m_);
    std::iota(art_rows_.begin(), art_rows_.end(), 0);
    art_vals_.assign(m_, 1.0);
  }

  StatusOr<LpSolution> Solve() {
    max_iters_ = options_.max_iterations > 0 ? options_.max_iterations
                                             : 80 * m_ + 10000;
    const bool warm = TryWarmStart();
    HYDRA_RETURN_IF_ERROR(RunPhase(/*phase=*/1));
    const int phase1 = iter_;
    if (options_.canonicalize) {
      StartCanonicalPhase();
      HYDRA_RETURN_IF_ERROR(RunPhase(/*phase=*/2));
    }
    return Export(phase1, warm);
  }

 private:
  // ---- costs ------------------------------------------------------------
  // Phase I: artificials cost 1, structurals 0. Phase II: structurals get
  // the fixed generic weights, artificials 0 (they are pinned at zero by
  // the ratio test and barred from entering).
  double StructuralCost(int j) const {
    return phase_ == 1 ? 0.0 : CanonicalWeight(j);
  }
  double BasisCost(int var) const {
    if (var >= n_) return phase_ == 1 ? 1.0 : 0.0;
    return StructuralCost(var);
  }

  // The canonicalization phase always prices with the candidate-list
  // partial rule: its endpoint is the unique canonical vertex whichever
  // rule walks there, so the Devex weight maintenance (whose pivot-row
  // pass grows expensive on the denser phase-II bases) buys nothing.
  bool UseDevex() const {
    return phase_ == 1 && options_.pricing == SimplexPricing::kDevex;
  }

  // Phase-I objective: total value of artificial basis variables.
  double Objective() const {
    double obj = 0;
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= n_) obj += xb_[i];
    }
    return obj;
  }

  double ReducedCost(int j) const {
    double d = StructuralCost(j);
    for (int t = cm_.col_ptr[j]; t < cm_.col_ptr[j + 1]; ++t) {
      d -= y_[cm_.row_idx[t]] * cm_.val[t];
    }
    return d;
  }

  // ---- main loop --------------------------------------------------------
  Status RunPhase(int phase) {
    phase_ = phase;
    int degenerate_streak = 0;
    bool was_bland = false;
    while (true) {
      if (phase_ == 1 && Objective() <= feas_zero_) return Status::OK();
      if (++iter_ > max_iters_) {
        return Status::ResourceExhausted(
            "simplex iteration budget exceeded (" +
            std::to_string(max_iters_) + ")");
      }
      const bool bland = degenerate_streak > 2 * m_ + 20;
      if (bland && !was_bland) {
        // Entering the anti-cycling regime: make the duals exact first so
        // Bland's first-negative scan is not misled by incremental drift.
        Refactorize();
      }
      was_bland = bland;
      double d_entering = 0;
      double gamma_entering = 1.0;
      int entering = PickEntering(bland, &d_entering, &gamma_entering);
      if (entering < 0) {
        // No improving column under the (incrementally maintained) duals.
        // Re-derive y from a fresh factorization before trusting the
        // verdict this implies.
        if (!fresh_factorization_ && Refactorize()) {
          entering = PickEntering(bland, &d_entering, &gamma_entering);
        }
        if (entering < 0) {
          --iter_;  // no pivot happened
          if (phase_ == 2) return Status::OK();  // canonical optimum
          if (Objective() <= tol_) return Status::OK();
          return Status::FailedPrecondition(
              "LP infeasible (phase-I objective " +
              std::to_string(Objective()) + ")");
        }
      }
      FtranColumn(entering);  // work_ = B^-1 A_entering (+ spike capture)
      int leaving = RatioTest(bland);
      if (leaving < 0) {
        if (!fresh_factorization_ && Refactorize()) {
          FtranColumn(entering);
          leaving = RatioTest(bland);
        }
        if (leaving < 0) {
          // Phase I cannot be unbounded and phase II minimizes a positive
          // objective over x >= 0; a missing leaving row is numerics.
          return Status::Internal("simplex unbounded — numerical failure");
        }
      }
      const double theta = (phase_ == 2 && basis_[leaving] >= n_)
                               ? 0.0
                               : xb_[leaving] / work_[leaving];
      if (theta <= tol_ * 1e-3) {
        ++degenerate_streak;
      } else {
        degenerate_streak = 0;
      }
      HYDRA_RETURN_IF_ERROR(
          Pivot(entering, leaving, theta, d_entering, gamma_entering));
    }
  }

  // Partial pricing over a rotating candidate list (multiple pricing):
  // re-price the cached candidates first and enter the best; only when the
  // list runs dry (or has gone stale), scan structural columns in rotating
  // blocks from the cursor, refilling the list with every improving column
  // of the first block that has one. The per-column merit is Devex
  // (d^2 / gamma) or plain most-negative (partial), per options. Under
  // Bland's rule, scan everything in index order and take the first
  // improving column. Returns -1 if no column prices out.
  int PickEntering(bool bland, double* d_entering, double* gamma_entering) {
    const bool devex = UseDevex();
    if (bland) {
      for (int j = 0; j < n_; ++j) {
        if (in_basis_[j]) continue;
        const double d = ReducedCost(j);
        if (d < -price_tol_) {
          *d_entering = d;
          *gamma_entering = devex ? devex_[j] : 1.0;
          return j;
        }
      }
      return -1;
    }
    // Re-price the surviving candidates (cheap: the list is small). If the
    // best of them is still comparably attractive to the best the refilling
    // scan saw, enter it without touching fresh blocks (suboptimization).
    int best = -1;
    double best_d = 0;
    double best_score = 0;
    size_t w = 0;
    for (size_t t = 0; t < candidates_.size(); ++t) {
      const int j = candidates_[t];
      if (in_basis_[j]) {
        candidate_flag_[j] = 0;
        continue;
      }
      const double d = ReducedCost(j);
      if (d >= -price_tol_) {  // stale candidate: drop
        candidate_flag_[j] = 0;
        continue;
      }
      candidates_[w++] = j;
      const double s = Merit(devex, j, d);
      if (best < 0 || s > best_score) {
        best_score = s;
        best_d = d;
        best = j;
      }
    }
    candidates_.resize(w);
    // Squared Devex merits decay faster than plain reduced costs, so the
    // suboptimization threshold is looser there (0.25 ~= 0.5^2).
    const double keep_factor = devex ? 0.25 : 0.5;
    if (best >= 0 && best_score >= keep_factor * refill_best_score_) {
      *d_entering = best_d;
      *gamma_entering = devex ? devex_[best] : 1.0;
      return best;
    }
    // Otherwise rotate fresh blocks from the cursor until one prices an
    // improving column (or the rotation completes), refilling the list with
    // every improving column seen along the way.
    const int block = std::max(256, (n_ + 31) / 32);
    int scanned = 0;
    while (scanned < n_) {
      const int begin = cursor_;
      const int len = std::min(block, n_ - scanned);
      ScanPricingBlock(begin, len, devex, &best, &best_d, &best_score);
      scanned += len;
      cursor_ = (begin + len) % n_;
      if (best >= 0) {
        refill_best_score_ = best_score;
        *d_entering = best_d;
        *gamma_entering = devex ? devex_[best] : 1.0;
        return best;
      }
    }
    return -1;
  }

  // The per-column pricing merit, shared by the candidate re-price and the
  // block scan so both evaluate the bit-identical expression.
  double Merit(bool devex, int j, double d) const {
    return devex ? d * d / devex_[j] : -d;
  }

  // Scans the rotating block [begin, begin + len) (mod n_) for improving
  // columns: appends them to candidates_ (dedup + cap) and folds the best
  // merit into (*best, *best_d, *best_score) with the strict-> first-best
  // rule.
  void ScanPricingBlock(int begin, int len, bool devex, int* best,
                        double* best_d, double* best_score) {
    for (int t = 0; t < len; ++t) {
      int j = begin + t;
      if (j >= n_) j -= n_;
      if (in_basis_[j]) continue;
      const double d = ReducedCost(j);
      if (d >= -price_tol_) continue;
      if (!candidate_flag_[j] && candidates_.size() < kMaxCandidates) {
        candidate_flag_[j] = 1;
        candidates_.push_back(j);
      }
      const double s = Merit(devex, j, d);
      if (*best < 0 || s > *best_score) {
        *best_score = s;
        *best_d = d;
        *best = j;
      }
    }
  }

  // work_ = B^-1 A_j, capturing the L-stage spike for a Forrest-Tomlin
  // update of this pivot. work_ is cleared sparsely through the support of
  // the previous FTRAN, and work_support_ receives this result's support,
  // so the ratio test and the pivot's x_B update never scan all m rows.
  void FtranColumn(int j) {
    for (int r : work_support_) work_[r] = 0.0;
    work_support_.clear();
    for (int t = cm_.col_ptr[j]; t < cm_.col_ptr[j + 1]; ++t) {
      work_[cm_.row_idx[t]] += cm_.val[t];
    }
    lu_.Ftran(work_, &spike_, cm_.row_idx.data() + cm_.col_ptr[j],
              cm_.ColNnz(j), &work_support_);
    // Ascending row order keeps the ratio test's tie-breaking identical to
    // a full 0..m scan, whichever solve path produced the support.
    std::sort(work_support_.begin(), work_support_.end());
  }

  int RatioTest(bool bland) const {
    int leaving = -1;
    double best_theta = 0;
    for (int k : work_support_) {
      const bool artificial = basis_[k] >= n_;
      double theta;
      if (phase_ == 2 && artificial) {
        // Canonicalization pins basic artificials at zero (their residual
        // mass was folded into b when the phase started): any significant
        // pivot-column entry in their row caps the step at zero, and the
        // tied ratio test then kicks the artificial out of the basis.
        if (std::fabs(work_[k]) <= price_tol_) continue;
        theta = 0.0;
      } else {
        if (work_[k] <= price_tol_) continue;
        theta = xb_[k] / work_[k];
      }
      if (leaving < 0 || theta < best_theta - 1e-12 ||
          (theta < best_theta + 1e-12 &&
           (bland ? basis_[k] < basis_[leaving]
                  // Prefer kicking artificials out of the basis on ties.
                  : artificial && basis_[leaving] < n_))) {
        leaving = k;
        best_theta = theta;
      }
    }
    return leaving;
  }

  // Applies the basis change: sparse x_B update, bookkeeping, the
  // Forrest-Tomlin column replacement (falling back to a full
  // refactorization when the update is numerically refused), incremental
  // duals (y' = y + d_e * rho with rho the leaving row of the new inverse),
  // and the sparse Devex weight pass through the pivot row.
  Status Pivot(int entering, int leaving, double theta, double d_entering,
               double gamma_entering) {
    for (int k : work_support_) {
      if (k == leaving || work_[k] == 0.0) continue;
      xb_[k] -= theta * work_[k];
      if (xb_[k] < 0 && xb_[k] > -tol_) xb_[k] = 0;
    }
    xb_[leaving] = theta;
    const double alpha_q = work_[leaving];
    const int leaving_var = basis_[leaving];
    if (leaving_var < n_) in_basis_[leaving_var] = false;
    basis_[leaving] = entering;
    in_basis_[entering] = true;
    ++pivots_since_refactor_;

    const bool devex = UseDevex();
    if (!lu_.Update(leaving, spike_)) {
      // Unstable replacement: rebuild the factors from the (already
      // updated) basis columns. The Devex pass is skipped — weights are
      // approximations and the refactorization recomputed exact duals.
      if (!Refactorize()) {
        return Status::Internal(
            "basis singular after pivot — numerical failure");
      }
      return Status::OK();
    }
    fresh_factorization_ = false;

    // rho^T = e_leaving^T B_new^-1 drives both the dual update and the
    // Devex weight update.
    for (int r : rho_support_) rho_[r] = 0.0;
    rho_support_.clear();
    rho_[leaving] = 1.0;
    lu_.Btran(rho_, &leaving, 1, &rho_support_);
    // Ascending order pins the floating-point accumulation order of the
    // Devex pass to the dense path's.
    std::sort(rho_support_.begin(), rho_support_.end());
    for (int i : rho_support_) {
      if (rho_[i] != 0.0) y_[i] += d_entering * rho_[i];
    }
    if (devex) UpdateDevexWeights(leaving_var, alpha_q, gamma_entering);

    if (pivots_since_refactor_ >= refactor_interval_ ||
        lu_.TotalNnz() > max_lu_nnz_) {
      if (!Refactorize()) {
        // Singular right now — keep the working update file and back off
        // for another interval instead of re-attempting after every pivot.
        pivots_since_refactor_ = 0;
        max_lu_nnz_ = lu_.TotalNnz() + base_growth_nnz_;
      }
    }
    return Status::OK();
  }

  // Devex reference-framework update (Forrest & Goldfarb): with pivot row
  // rho, every nonbasic column j with alpha_j = rho . A_j != 0 raises its
  // weight to max(gamma_j, (alpha_j/alpha_q)^2 * gamma_q); the leaving
  // variable re-enters the nonbasic pool at max(gamma_q/alpha_q^2, 1).
  // alpha is accumulated sparsely through the CSR rows of rho's support,
  // so on Hydra's sparse rows the pass costs the support's fill — and a
  // per-pivot entry budget caps it on dense-row instances (DataSynth-style
  // wide LPs), where an exact pass would cost a full matrix sweep per
  // pivot. Skipped rows leave weights understated, which Devex tolerates:
  // they only sharpen the merit ordering, never its correctness.
  void UpdateDevexWeights(int leaving_var, double alpha_q, double gamma_q) {
    const double inv_aq2 = 1.0 / (alpha_q * alpha_q);
    alpha_touched_.clear();
    // rho is the leaving row of the NEW inverse, so the accumulated
    // alpha_[j] below is already alpha_j / alpha_q — square it directly;
    // only the leaving variable's own weight needs the 1/alpha_q^2 factor.
    int64_t budget = 16 * static_cast<int64_t>(m_) + 1024;
    for (int i : rho_support_) {
      const double r = rho_[i];
      if (std::fabs(r) <= 1e-12) continue;
      budget -= cm_.row_ptr[i + 1] - cm_.row_ptr[i];
      if (budget < 0) break;
      for (int t = cm_.row_ptr[i]; t < cm_.row_ptr[i + 1]; ++t) {
        const int j = cm_.col_idx[t];
        if (in_basis_[j]) continue;
        if (alpha_[j] == 0.0) alpha_touched_.push_back(j);
        alpha_[j] += r * cm_.rval[t];
      }
    }
    double maxw = 0.0;
    for (int j : alpha_touched_) {
      const double a = alpha_[j];
      alpha_[j] = 0.0;
      const double cand = a * a * gamma_q;
      if (cand > devex_[j]) devex_[j] = cand;
      if (devex_[j] > maxw) maxw = devex_[j];
    }
    if (leaving_var < n_) {
      devex_[leaving_var] = std::max(gamma_q * inv_aq2, 1.0);
      maxw = std::max(maxw, devex_[leaving_var]);
    }
    // Weights grown far beyond the reference framework lose their meaning;
    // restart the framework at the current nonbasic set.
    if (maxw > 1e7) devex_.assign(n_, 1.0);
  }

  // ---- basis management -------------------------------------------------
  BasisLu::Column ColumnOf(int var) const {
    if (var >= n_) {
      const int r = var - n_;
      return {&art_rows_[r], &art_vals_[r], 1};
    }
    return {cm_.row_idx.data() + cm_.col_ptr[var],
            cm_.val.data() + cm_.col_ptr[var], cm_.ColNnz(var)};
  }

  // Rebuilds the LU factors from the current basis columns, permutes basis
  // positions to the factorization's pivot rows, and recomputes x_B and the
  // duals exactly. Returns false (leaving the previous factors and update
  // file in place) if the basis is numerically singular.
  bool Refactorize() {
    ScopedLatencyTimer timer(&g_refactorize_us);
    std::vector<BasisLu::Column> cols(m_);
    for (int p = 0; p < m_; ++p) cols[p] = ColumnOf(basis_[p]);
    if (!lu_.Factorize(m_, cols)) return false;
    std::vector<int> new_basis(m_);
    for (int p = 0; p < m_; ++p) {
      new_basis[lu_.row_of_position()[p]] = basis_[p];
    }
    basis_ = std::move(new_basis);
    pivots_since_refactor_ = 0;
    max_lu_nnz_ = lu_.TotalNnz() + base_growth_nnz_;
    fresh_factorization_ = true;

    // x_B = B^-1 b (min tracked pre-clamp for warm-start validation). When
    // b's support is tiny, handing it to Ftran lets the solve run
    // hyper-sparsely over the fresh factors (the update file is empty
    // here) instead of sweeping all of L and U. The gate is deliberately
    // much tighter than Ftran's own m/8 cutoff: BM_BasisLuFtranB measures
    // mid-size supports (~m/25) losing to the dense sweep once the
    // reachability closure blows past its fallback limit, so only
    // clearly-small supports take the sparse path.
    xb_ = cm_.b;
    b_support_.clear();
    for (int i = 0; i < m_; ++i) {
      if (xb_[i] != 0.0) b_support_.push_back(i);
    }
    if (static_cast<int>(b_support_.size()) < m_ / 64) {
      lu_.Ftran(xb_, /*spike=*/nullptr, b_support_.data(),
                static_cast<int>(b_support_.size()));
    } else {
      lu_.Ftran(xb_);
    }
    min_xb_ = 0.0;
    for (double& v : xb_) {
      min_xb_ = std::min(min_xb_, v);
      if (v < 0) v = 0;
    }
    ComputeDuals();
    return true;
  }

  // y^T = c_B^T B^-1 under the current phase's costs.
  void ComputeDuals() {
    for (int i = 0; i < m_; ++i) y_[i] = BasisCost(basis_[i]);
    lu_.Btran(y_);
  }

  void ColdStart() {
    for (int i = 0; i < m_; ++i) basis_[i] = n_ + i;  // artificials
    std::fill(in_basis_.begin(), in_basis_.end(), false);
    const bool ok = Refactorize();
    HYDRA_CHECK(ok);  // the identity always factors
  }

  // Imports options_.warm_start when it matches this problem's shape and
  // yields a factorizable basis with x_B >= 0; otherwise cold-starts.
  bool TryWarmStart() {
    phase_ = 1;
    const SimplexBasis* warm = options_.warm_start;
    if (warm == nullptr || warm->empty() || warm->num_rows != m_ ||
        warm->num_vars != n_ ||
        static_cast<int>(warm->basic.size()) != m_) {
      ColdStart();
      return false;
    }
    std::fill(in_basis_.begin(), in_basis_.end(), false);
    bool valid = true;
    for (int r = 0; r < m_ && valid; ++r) {
      const int var = warm->basic[r];
      if (var >= n_ || var < -1) {
        valid = false;
      } else if (var >= 0) {
        if (in_basis_[var]) valid = false;  // duplicated column
        basis_[r] = var;
        in_basis_[var] = true;
      } else {
        basis_[r] = n_ + r;
      }
    }
    if (!valid || !Refactorize() || min_xb_ < -tol_) {
      // Structurally or numerically incompatible with this problem (a
      // negative basic value would break the phase-I invariant x >= 0):
      // fall back to the cold all-artificial start.
      ColdStart();
      return false;
    }
    return true;
  }

  void StartCanonicalPhase() {
    phase_ = 2;
    // Freeze whatever infeasibility phase I could not remove: each basic
    // artificial's residual moves from x_B into the right-hand side, so
    // from here on artificials sit at exactly zero, every refactorization
    // (x_B = B^-1 b) reproduces that, and the ratio test can pin them
    // without drift. For exactly-solved systems (the Hydra LPs) the
    // residuals are zero and b is untouched, which is what makes the
    // canonical vertex a function of the problem alone.
    for (int k = 0; k < m_; ++k) {
      if (basis_[k] >= n_ && xb_[k] != 0.0) {
        cm_.b[basis_[k] - n_] -= xb_[k];
        xb_[k] = 0.0;
      }
    }
    // New objective: exact duals, fresh pricing state, new Devex framework.
    ComputeDuals();
    for (int j : candidates_) candidate_flag_[j] = 0;
    candidates_.clear();
    refill_best_score_ = 0;
  }

  // ---- solution export --------------------------------------------------
  // The final values are recomputed through one factorization of the final
  // basis taken in a canonical column order (structurals ascending, then
  // artificials), so byte-identical basis sets give byte-identical values
  // no matter which pivot path produced them.
  StatusOr<LpSolution> Export(int phase1_iters, bool warm) {
    LpSolution sol;
    sol.values.assign(n_, 0.0);
    sol.iterations = iter_;
    sol.phase1_iterations = phase1_iters;
    sol.warm_started = warm;

    std::vector<int> vars(basis_.begin(), basis_.end());
    std::sort(vars.begin(), vars.end());
    std::vector<BasisLu::Column> cols(m_);
    for (int p = 0; p < m_; ++p) cols[p] = ColumnOf(vars[p]);
    BasisLu canonical;
    std::vector<double> xb = cm_.b;
    const int* row_of_position = nullptr;
    if (canonical.Factorize(m_, cols)) {
      canonical.Ftran(xb);
      row_of_position = canonical.row_of_position().data();
    } else {
      // The working factors already answer for this basis; fall back to
      // the path-dependent layout rather than failing the solve.
      vars = basis_;
      xb = xb_;
    }
    for (int p = 0; p < m_; ++p) {
      const int var = vars[p];
      if (var >= n_) continue;
      double v = row_of_position != nullptr ? xb[row_of_position[p]] : xb[p];
      if (v < 0) v = 0;
      // Snap values that are integral up to roundoff: the common case for
      // these 0/1 systems, and it absorbs last-ulp differences between
      // alternative optimal bases of a degenerate canonical vertex. The
      // window sits well above one ulp but far below any genuine
      // fractional vertex component.
      const double r = std::round(v);
      if (std::fabs(v - r) <= 1e-12 * std::max(1.0, std::fabs(v))) v = r;
      sol.values[var] = v;
    }
    if (options_.export_basis != nullptr) {
      SimplexBasis& out = *options_.export_basis;
      out.num_rows = m_;
      out.num_vars = n_;
      out.basic.assign(m_, -1);
      for (int p = 0; p < m_; ++p) {
        if (vars[p] < n_) {
          const int row = row_of_position != nullptr ? row_of_position[p] : p;
          out.basic[row] = vars[p];
        }
      }
    }
    return sol;
  }

  ColumnMatrix cm_;
  SimplexOptions options_;
  int m_ = 0;
  int n_ = 0;
  int phase_ = 1;
  int iter_ = 0;
  int max_iters_ = 0;
  BasisLu lu_;
  BasisLu::Spike spike_;
  uint64_t base_growth_nnz_ = 0;
  uint64_t max_lu_nnz_ = 0;
  int refactor_interval_ = 64;
  int pivots_since_refactor_ = 0;
  bool fresh_factorization_ = false;
  double min_xb_ = 0.0;       // pre-clamp min of the last refactorized x_B
  std::vector<double> xb_;
  std::vector<int> b_support_;  // nonzero rows of b (Refactorize scratch)
  std::vector<double> y_;     // dual vector, maintained incrementally
  std::vector<double> work_;  // FTRAN result of the entering column
  std::vector<int> work_support_;  // superset of work_'s nonzero rows
  std::vector<double> rho_;   // unit-vector BTRAN scratch for dual updates
  std::vector<int> rho_support_;   // superset of rho_'s nonzero rows
  std::vector<int> basis_;    // basis_[row] < n_: structural; else artificial
  std::vector<bool> in_basis_;
  std::vector<int> art_rows_;    // identity slices for artificial columns
  std::vector<double> art_vals_;
  std::vector<double> devex_;    // Devex weights (devex pricing only)
  std::vector<double> alpha_;    // sparse pivot-row accumulator, size n
  std::vector<int> alpha_touched_;
  int cursor_ = 0;            // rotating partial-pricing position
  static constexpr size_t kMaxCandidates = 32;
  std::vector<int> candidates_;  // improving columns to re-price first
  std::vector<char> candidate_flag_;  // j is in candidates_ (dedup)
  double refill_best_score_ = 0;  // best merit at the last refilling scan
  double tol_ = 1e-7;
  double feas_zero_ = 1e-21;
  double price_tol_ = 1e-7;
};

}  // namespace

StatusOr<LpSolution> SolveFeasibility(const LpProblem& problem,
                                      const SimplexOptions& options) {
  if (static_cast<uint64_t>(problem.num_vars()) > options.max_variables) {
    return Status::ResourceExhausted(
        "LP has " + std::to_string(problem.num_vars()) +
        " variables, exceeding the solver budget of " +
        std::to_string(options.max_variables));
  }
  if (problem.num_constraints() == 0) {
    LpSolution sol;
    sol.values.assign(problem.num_vars(), 0.0);
    return sol;
  }
  RevisedSimplex solver(BuildColumns(problem), options);
  return solver.Solve();
}

}  // namespace hydra
