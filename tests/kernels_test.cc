// Tests for engine/kernels: every kernel against a per-element reference
// loop written here (over lengths that exercise the compiler's vector tails),
// selection-vector mechanics, and BlockPredicate compilation semantics
// against DnfPredicate::Eval as the oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "engine/kernels.h"
#include "engine/row_block.h"
#include "query/predicate.h"

namespace hydra {
namespace {

using kernels::BlockPredicate;

std::vector<Value> RandomColumn(int64_t n, uint32_t seed, Value lo = -100,
                                Value hi = 100) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Value> dist(lo, hi);
  std::vector<Value> col(n);
  for (auto& v : col) v = dist(rng);
  return col;
}

// Lengths around the 2/4/16-lane vector widths plus larger odd sizes.
const int64_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 1000, 1001};

TEST(KernelsTest, IntervalMaskMatchesReference) {
  for (const int64_t n : kLengths) {
    const std::vector<Value> col = RandomColumn(n, 42 + n);
    std::vector<uint8_t> mask(n + 1, 0xee);
    kernels::IntervalMask(col.data(), n, -10, 25, mask.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(mask[i], col[i] >= -10 && col[i] < 25 ? 1 : 0)
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(mask[n], 0xee) << "wrote past the mask";

    // The OR accumulator only ever sets bytes.
    kernels::IntervalMaskOr(col.data(), n, 50, 90, mask.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(mask[i], (col[i] >= -10 && col[i] < 25) ||
                                 (col[i] >= 50 && col[i] < 90)
                             ? 1
                             : 0)
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(mask[n], 0xee) << "wrote past the mask";
  }
}

TEST(KernelsTest, IntervalMaskExtremeBounds) {
  const std::vector<Value> col = {INT64_MIN, -1, 0, 1, INT64_MAX};
  std::vector<uint8_t> mask(col.size());
  kernels::IntervalMask(col.data(), col.size(), INT64_MIN, INT64_MAX,
                        mask.data());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 1, 1, 1, 0}));
  kernels::IntervalMask(col.data(), col.size(), 0, 1, mask.data());
  EXPECT_EQ(mask, (std::vector<uint8_t>{0, 0, 1, 0, 0}));
  kernels::IntervalMaskOr(col.data(), col.size(), INT64_MAX - 1, INT64_MAX,
                          mask.data());
  EXPECT_EQ(mask, (std::vector<uint8_t>{0, 0, 1, 0, 0}));
  kernels::IntervalMaskOr(col.data(), col.size(), INT64_MIN, -1, mask.data());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 0, 1, 0, 0}));
}

TEST(KernelsTest, MaskCombineMatchesReference) {
  for (const int64_t n : kLengths) {
    std::mt19937 rng(7 + n);
    std::vector<uint8_t> a(n), b(n);
    for (int64_t i = 0; i < n; ++i) {
      a[i] = rng() & 1;
      b[i] = rng() & 1;
    }
    std::vector<uint8_t> and_mask = a, or_mask = a;
    kernels::MaskAnd(and_mask.data(), b.data(), n);
    kernels::MaskOr(or_mask.data(), b.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(and_mask[i], a[i] & b[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(or_mask[i], a[i] | b[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelsTest, MaskToSelAppendsAscendingIndices) {
  const std::vector<uint8_t> mask = {1, 0, 0, 1, 1, 0, 1};
  SelVector sel = {99};  // appends, never clears
  kernels::MaskToSel(mask.data(), static_cast<int64_t>(mask.size()), &sel);
  EXPECT_EQ(sel, (SelVector{99, 0, 3, 4, 6}));
  sel.clear();
  kernels::MaskToSel(mask.data(), 0, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(KernelsTest, GatherSupportsInPlaceCompaction) {
  const std::vector<Value> src = {10, 11, 12, 13, 14, 15};
  const SelVector sel = {0, 2, 5};
  std::vector<Value> dst(3, -1);
  kernels::Gather(src.data(), sel.data(), 3, dst.data());
  EXPECT_EQ(dst, (std::vector<Value>{10, 12, 15}));
  // In place: ascending selection reads stay ahead of writes.
  std::vector<Value> buf = src;
  kernels::Gather(buf.data(), sel.data(), 3, buf.data());
  EXPECT_EQ(buf[0], 10);
  EXPECT_EQ(buf[1], 12);
  EXPECT_EQ(buf[2], 15);
}

TEST(KernelsTest, HashKeysMatchesMixKey) {
  for (const int64_t n : kLengths) {
    const std::vector<Value> col =
        RandomColumn(n, 1234 + n, INT64_MIN / 2, INT64_MAX / 2);
    std::vector<uint64_t> hash(n);
    kernels::HashKeys(col.data(), n, hash.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hash[i], kernels::MixKey(col[i])) << "n=" << n << " i=" << i;
    }
  }
  // Extreme keys go through the same fixed mix.
  const std::vector<Value> extremes = {INT64_MIN, -1, 0, 1, INT64_MAX};
  std::vector<uint64_t> hash(extremes.size());
  kernels::HashKeys(extremes.data(), extremes.size(), hash.data());
  for (size_t i = 0; i < extremes.size(); ++i) {
    EXPECT_EQ(hash[i], kernels::MixKey(extremes[i])) << "i=" << i;
  }
}

TEST(KernelsTest, FillKernels) {
  for (const int64_t n : kLengths) {
    std::vector<Value> buf(n + 1, -1);
    kernels::FillConst(buf.data(), n, 7);
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(buf[i], 7) << "n=" << n;
    kernels::FillIota(buf.data(), n, 100);
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(buf[i], 100 + i) << "n=" << n;
    EXPECT_EQ(buf[n], -1) << "wrote past the buffer";
  }
  std::vector<Value> buf(10, -1);
  kernels::FillIota(buf.data(), 10, 100);
  kernels::FillConst(buf.data(), 0, 9);  // n = 0 is a no-op
  EXPECT_EQ(buf[0], 100);
}

RowBlock MakeBlock(const std::vector<std::vector<Value>>& columns) {
  RowBlock block(static_cast<int>(columns.size()));
  if (columns.empty()) return block;
  block.ResizeUninitialized(static_cast<int64_t>(columns[0].size()));
  for (size_t c = 0; c < columns.size(); ++c) {
    std::copy(columns[c].begin(), columns[c].end(),
              block.MutableColumn(static_cast<int>(c)));
  }
  return block;
}

TEST(BlockPredicateTest, CompilationSemantics) {
  EXPECT_TRUE(BlockPredicate().is_false());  // default = DnfPredicate() = FALSE
  EXPECT_TRUE(BlockPredicate(DnfPredicate()).is_false());
  EXPECT_TRUE(BlockPredicate(DnfPredicate::True()).is_true());
  // An atom over an empty IntervalSet kills its conjunct.
  DnfPredicate impossible = PredicateOf(Atom{0, IntervalSet{}});
  EXPECT_TRUE(BlockPredicate(impossible).is_false());
}

TEST(BlockPredicateTest, SelectMatchesRowOracle) {
  // Two conjuncts, one with a multi-interval atom:
  // (c0∈[0,40) ∧ c1∈[−50,0)) ∨ c0∈[60,70)∪[80,90).
  const IntervalSet split(std::vector<Interval>{{60, 70}, {80, 90}});
  const DnfPredicate dnf =
      PredicateAllOf({Atom{0, IntervalSet(Interval(0, 40))},
                      Atom{1, IntervalSet(Interval(-50, 0))}})
          .Or(PredicateOf(Atom{0, split}));
  const BlockPredicate pred(dnf);
  for (const int64_t n : kLengths) {
    const RowBlock block =
        MakeBlock({RandomColumn(n, 5 + n), RandomColumn(n, 6 + n)});
    SelVector expected;
    Row row(2);
    for (int64_t r = 0; r < n; ++r) {
      block.CopyRowTo(r, row.data());
      if (dnf.Eval(row)) expected.push_back(static_cast<int32_t>(r));
    }
    SelVector sel = {123};  // Select clears
    pred.Select(block, &sel);
    EXPECT_EQ(sel, expected) << "n=" << n;
  }
}

TEST(BlockPredicateTest, TrueAndFalseFastPaths) {
  const RowBlock block = MakeBlock({{1, 2, 3}});
  SelVector sel;
  BlockPredicate(DnfPredicate::True()).Select(block, &sel);
  EXPECT_EQ(sel, (SelVector{0, 1, 2}));
  BlockPredicate().Select(block, &sel);
  EXPECT_TRUE(sel.empty());
  // Empty batch: no rows selected regardless of the predicate.
  const RowBlock empty = MakeBlock({{}});
  BlockPredicate(DnfPredicate::True()).Select(empty, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(RowBlockTest, ColumnarRoundTrip) {
  RowBlock block(3);
  const std::vector<Value> rows = {1, 2, 3, 4, 5, 6};  // two row-major rows
  block.AppendRowMajor(rows.data(), 2);
  EXPECT_EQ(block.num_rows(), 2);
  EXPECT_EQ(block.Column(0)[0], 1);
  EXPECT_EQ(block.Column(0)[1], 4);
  EXPECT_EQ(block.Column(2)[1], 6);
  Row row(3);
  block.CopyRowTo(1, row.data());
  EXPECT_EQ(row, (Row{4, 5, 6}));

  RowBlock other(3);
  other.AppendBlock(block);
  other.AppendRange(block, 1, 1);
  EXPECT_EQ(other.num_rows(), 3);
  other.CopyRowTo(2, row.data());
  EXPECT_EQ(row, (Row{4, 5, 6}));

  other.Truncate(1);
  EXPECT_EQ(other.num_rows(), 1);
  other.Reset(2);
  EXPECT_EQ(other.num_columns(), 2);
  EXPECT_TRUE(other.empty());
}

}  // namespace
}  // namespace hydra
