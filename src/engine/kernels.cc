#include "engine/kernels.h"

namespace hydra {
namespace kernels {

// Keep each kernel a single-expression loop over contiguous data: that is
// what lets the compiler vectorize it for the build's target ISA.

void IntervalMask(const Value* col, int64_t n, Value lo, Value hi,
                  uint8_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

void IntervalMaskOr(const Value* col, int64_t n, Value lo, Value hi,
                    uint8_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] |= static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

void MaskAnd(uint8_t* a, const uint8_t* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] &= b[i];
}

void MaskOr(uint8_t* a, const uint8_t* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] |= b[i];
}

void MaskToSel(const uint8_t* mask, int64_t n, SelVector* sel, int32_t base) {
  for (int64_t i = 0; i < n; ++i) {
    if (mask[i]) sel->push_back(base + static_cast<int32_t>(i));
  }
}

void Gather(const Value* src, const int32_t* sel, int64_t n, Value* dst) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[sel[i]];
}

void HashKeys(const Value* col, int64_t n, uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = MixKey(col[i]);
}

void FillConst(Value* dst, int64_t n, Value v) {
  for (int64_t i = 0; i < n; ++i) dst[i] = v;
}

void FillIota(Value* dst, int64_t n, Value start) {
  for (int64_t i = 0; i < n; ++i) dst[i] = start + i;
}

// --- BlockPredicate ------------------------------------------------------

BlockPredicate::BlockPredicate(const DnfPredicate& dnf) {
  for (const Conjunct& conj : dnf.conjuncts()) {
    std::vector<AtomPlan> plan;
    plan.reserve(conj.atoms.size());
    bool conjunct_false = false;
    for (const Atom& atom : conj.atoms) {
      if (atom.values.empty()) {
        conjunct_false = true;  // contradicted atom: conjunct matches nothing
        break;
      }
      plan.push_back({atom.column, atom.values.intervals()});
    }
    if (conjunct_false) continue;
    if (plan.empty()) {
      // An empty conjunct is TRUE, which makes the whole disjunction TRUE.
      is_true_ = true;
      conjuncts_.clear();
      return;
    }
    conjuncts_.push_back(std::move(plan));
  }
}

namespace {

void AtomMask(const Value* col, int64_t n, const std::vector<Interval>& ivs,
              uint8_t* out) {
  IntervalMask(col, n, ivs[0].lo, ivs[0].hi, out);
  for (size_t k = 1; k < ivs.size(); ++k) {
    IntervalMaskOr(col, n, ivs[k].lo, ivs[k].hi, out);
  }
}

}  // namespace

void BlockPredicate::Select(const RowBlock& block, SelVector* sel) const {
  SelectRange(block, 0, block.num_rows(), sel);
}

void BlockPredicate::SelectRange(const RowBlock& block, int64_t begin,
                                 int64_t end, SelVector* sel) const {
  sel->clear();
  const int64_t n = end - begin;
  if (n <= 0 || is_false()) return;
  if (is_true_) {
    sel->resize(n);
    for (int64_t i = 0; i < n; ++i) {
      (*sel)[i] = static_cast<int32_t>(begin + i);
    }
    return;
  }
  // thread_local scratch: Select is const and runs concurrently on morsel
  // workers; each thread folds into its own masks.
  thread_local std::vector<uint8_t> total_mask;
  thread_local std::vector<uint8_t> conj_mask;
  thread_local std::vector<uint8_t> atom_mask;
  const bool single = conjuncts_.size() == 1;
  if (!single) total_mask.assign(n, 0);
  conj_mask.resize(n);
  atom_mask.resize(n);
  for (const std::vector<AtomPlan>& conj : conjuncts_) {
    AtomMask(block.Column(conj[0].column) + begin, n, conj[0].intervals,
             conj_mask.data());
    for (size_t a = 1; a < conj.size(); ++a) {
      AtomMask(block.Column(conj[a].column) + begin, n, conj[a].intervals,
               atom_mask.data());
      MaskAnd(conj_mask.data(), atom_mask.data(), n);
    }
    if (single) break;
    MaskOr(total_mask.data(), conj_mask.data(), n);
  }
  sel->reserve(n);
  MaskToSel(single ? conj_mask.data() : total_mask.data(), n, sel,
            static_cast<int32_t>(begin));
}

}  // namespace kernels
}  // namespace hydra
