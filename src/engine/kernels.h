// Per-column kernels for the engine's hot loops: branch-free interval masks,
// mask combination, selection-vector extraction, gathers, batched join-key
// hashing, and constant/iota column fills.
//
// Every kernel has one body: a tight loop over contiguous data that the
// compiler vectorizes where the build's target ISA has the instructions
// (baseline x86-64 lacks 64-bit compares and multiplies, so the interval
// masks and HashKeys stay scalar there). The loops are plain integer
// arithmetic, so results are bit-identical on every ISA, which keeps engine
// output byte-identical across machines (docs/engine.md).
//
// BlockPredicate is the compiled form of a DnfPredicate over a columnar
// RowBlock: atoms become interval-mask kernels, conjuncts AND masks,
// disjuncts OR them, and the result leaves as a selection vector.

#ifndef HYDRA_ENGINE_KERNELS_H_
#define HYDRA_ENGINE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "engine/row_block.h"
#include "query/predicate.h"

namespace hydra {
namespace kernels {

// out[i] = col[i] in [lo, hi), as 0/1 bytes.
void IntervalMask(const Value* col, int64_t n, Value lo, Value hi,
                  uint8_t* out);
// out[i] |= col[i] in [lo, hi) — accumulates the disjuncts of a
// multi-interval atom (e.g. IN lists).
void IntervalMaskOr(const Value* col, int64_t n, Value lo, Value hi,
                    uint8_t* out);

// a[i] &= b[i] / a[i] |= b[i] over 0/1 byte masks.
void MaskAnd(uint8_t* a, const uint8_t* b, int64_t n);
void MaskOr(uint8_t* a, const uint8_t* b, int64_t n);

// Appends base + the indices with mask[i] != 0 to *sel (not cleared),
// ascending. `base` shifts the emitted indices so a mask computed over a
// sub-range of a block selects into the full block's row space.
void MaskToSel(const uint8_t* mask, int64_t n, SelVector* sel,
               int32_t base = 0);

// dst[i] = src[sel[i]]. In-place compaction (dst == src) is allowed because
// selection vectors are ascending: sel[i] >= i, so reads stay ahead of
// writes.
void Gather(const Value* src, const int32_t* sel, int64_t n, Value* dst);

// The engine's fixed integer mix (splitmix64 finalizer) for join-key
// hashing and hash partitioning. Only distributions depend on it — results
// never do — but it must stay platform-independent so partition shapes are
// reproducible.
inline uint64_t MixKey(Value v) {
  uint64_t x = static_cast<uint64_t>(v);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// out[i] = MixKey(col[i]): one pass over the whole key column, so the mix is
// computed once per batch instead of once per probe inside the hash-table
// loop.
void HashKeys(const Value* col, int64_t n, uint64_t* out);

// dst[0..n) = v.
void FillConst(Value* dst, int64_t n, Value v);
// dst[i] = start + i — primary keys are ranks, so generator fills emit PK
// columns as iota runs.
void FillIota(Value* dst, int64_t n, Value start);

// A DnfPredicate compiled to per-column kernel plans. Select() is const and
// thread-safe (scratch masks are thread_local), so one compiled predicate
// serves concurrent morsel workers.
class BlockPredicate {
 public:
  // Default: matches nothing (same as DnfPredicate(), which is FALSE).
  BlockPredicate() = default;
  explicit BlockPredicate(const DnfPredicate& dnf);

  bool is_true() const { return is_true_; }
  bool is_false() const { return !is_true_ && conjuncts_.empty(); }

  // Clears *sel and fills it with the indices of `block`'s passing rows,
  // ascending. Every atom's column index must be < block.num_columns().
  void Select(const RowBlock& block, SelVector* sel) const;

  // Select() restricted to rows [begin, end): masks are evaluated over the
  // sub-range only, and the emitted indices stay absolute (in [begin, end)),
  // so gathers against the full block's columns work unchanged. The passing
  // set equals Select() intersected with [begin, end) — the shared-scan fan
  // path filters its slice of a group chunk without copying it first.
  void SelectRange(const RowBlock& block, int64_t begin, int64_t end,
                   SelVector* sel) const;

 private:
  struct AtomPlan {
    int column = -1;
    std::vector<Interval> intervals;  // sorted, disjoint, non-empty
  };
  std::vector<std::vector<AtomPlan>> conjuncts_;
  bool is_true_ = false;
};

}  // namespace kernels
}  // namespace hydra

#endif  // HYDRA_ENGINE_KERNELS_H_
