// Unit tests for common/: Status, intervals, RNG, text tables.

#include <memory>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/interval.h"
#include "common/random.h"
#include "common/status.h"
#include "common/text_table.h"

namespace hydra {
namespace {

// --- Status --------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad domain");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad domain");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad domain");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

// Dereferencing an rvalue StatusOr moves the value out instead of copying:
// a move-only payload only compiles through the rvalue overload.
TEST(StatusOrTest, RvalueDereferenceMovesValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = *std::move(v);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  HYDRA_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseHalf(3, &out).ok());
}

// --- Interval --------------------------------------------------------------

TEST(IntervalTest, BasicProperties) {
  Interval iv(3, 8);
  EXPECT_FALSE(iv.empty());
  EXPECT_EQ(iv.Count(), 5);
  EXPECT_TRUE(iv.Contains(3));
  EXPECT_TRUE(iv.Contains(7));
  EXPECT_FALSE(iv.Contains(8));
  EXPECT_FALSE(iv.Contains(2));
  EXPECT_EQ(iv.ToString(), "[3,8)");
}

TEST(IntervalTest, EmptyWhenDegenerate) {
  EXPECT_TRUE(Interval(5, 5).empty());
  EXPECT_TRUE(Interval(6, 5).empty());
  EXPECT_EQ(Interval(6, 5).Count(), 0);
}

TEST(IntervalTest, Overlaps) {
  EXPECT_TRUE(Interval(0, 5).Overlaps(Interval(4, 10)));
  EXPECT_FALSE(Interval(0, 5).Overlaps(Interval(5, 10)));
  EXPECT_TRUE(Interval(0, 10).Overlaps(Interval(3, 4)));
}

TEST(IntervalTest, Intersect) {
  EXPECT_EQ(Interval(0, 5).Intersect(Interval(3, 9)), Interval(3, 5));
  EXPECT_TRUE(Interval(0, 3).Intersect(Interval(5, 9)).empty());
}

// --- IntervalSet -----------------------------------------------------------

TEST(IntervalSetTest, NormalizesUnsortedOverlapping) {
  IntervalSet s(std::vector<Interval>{{5, 9}, {0, 3}, {2, 6}, {12, 12}});
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval(0, 9));
}

TEST(IntervalSetTest, MergesAdjacent) {
  IntervalSet s(std::vector<Interval>{{0, 3}, {3, 6}});
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval(0, 6));
}

TEST(IntervalSetTest, CountAndContains) {
  IntervalSet s(std::vector<Interval>{{0, 3}, {10, 12}});
  EXPECT_EQ(s.Count(), 5);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(2));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_TRUE(s.Contains(11));
  EXPECT_FALSE(s.Contains(12));
  EXPECT_EQ(s.Min(), 0);
  EXPECT_EQ(s.Max(), 11);
}

TEST(IntervalSetTest, IntersectDisjointPieces) {
  IntervalSet a(std::vector<Interval>{{0, 5}, {10, 15}});
  IntervalSet b(std::vector<Interval>{{3, 12}});
  IntervalSet c = a.Intersect(b);
  ASSERT_EQ(c.intervals().size(), 2u);
  EXPECT_EQ(c.intervals()[0], Interval(3, 5));
  EXPECT_EQ(c.intervals()[1], Interval(10, 12));
}

TEST(IntervalSetTest, DifferencePunchesHole) {
  IntervalSet a(Interval(0, 10));
  IntervalSet d = a.Difference(Interval(3, 6));
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], Interval(0, 3));
  EXPECT_EQ(d.intervals()[1], Interval(6, 10));
}

TEST(IntervalSetTest, DifferenceAcrossPieces) {
  IntervalSet a(std::vector<Interval>{{0, 4}, {6, 10}});
  IntervalSet d = a.Difference(IntervalSet(std::vector<Interval>{{2, 8}}));
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], Interval(0, 2));
  EXPECT_EQ(d.intervals()[1], Interval(8, 10));
}

TEST(IntervalSetTest, DifferenceEverything) {
  IntervalSet a(Interval(0, 10));
  EXPECT_TRUE(a.Difference(Interval(0, 10)).empty());
  EXPECT_TRUE(a.Difference(Interval(-5, 20)).empty());
}

TEST(IntervalSetTest, UnionMerges) {
  IntervalSet a(Interval(0, 3));
  IntervalSet b(Interval(2, 7));
  IntervalSet u = a.Union(b);
  ASSERT_EQ(u.intervals().size(), 1u);
  EXPECT_EQ(u.Count(), 7);
}

TEST(IntervalSetTest, SplitAtInsidePiece) {
  IntervalSet a(std::vector<Interval>{{0, 4}, {6, 10}});
  auto [lo, hi] = a.SplitAt(7);
  EXPECT_EQ(lo.Count(), 5);  // [0,4) + [6,7)
  EXPECT_EQ(hi.Count(), 3);  // [7,10)
}

TEST(IntervalSetTest, SplitAtBoundaryIsClean) {
  IntervalSet a(Interval(0, 10));
  auto [lo, hi] = a.SplitAt(0);
  EXPECT_TRUE(lo.empty());
  EXPECT_EQ(hi.Count(), 10);
  auto [lo2, hi2] = a.SplitAt(10);
  EXPECT_EQ(lo2.Count(), 10);
  EXPECT_TRUE(hi2.empty());
}

// Algebraic property sweep: for random sets A, B over a small universe,
// set operations agree with element-wise evaluation.
class IntervalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetPropertyTest, OperationsMatchElementwiseSemantics) {
  Rng rng(GetParam());
  const int64_t universe = 40;
  auto random_set = [&]() {
    std::vector<Interval> ivs;
    const int pieces = static_cast<int>(rng.NextInt(0, 5));
    for (int i = 0; i < pieces; ++i) {
      const int64_t lo = rng.NextInt(0, universe);
      ivs.push_back(Interval(lo, rng.NextInt(lo, universe + 1)));
    }
    return IntervalSet(std::move(ivs));
  };
  const IntervalSet a = random_set();
  const IntervalSet b = random_set();
  const IntervalSet inter = a.Intersect(b);
  const IntervalSet diff = a.Difference(b);
  const IntervalSet uni = a.Union(b);
  for (int64_t v = -2; v < universe + 2; ++v) {
    const bool in_a = a.Contains(v);
    const bool in_b = b.Contains(v);
    EXPECT_EQ(inter.Contains(v), in_a && in_b) << "v=" << v;
    EXPECT_EQ(diff.Contains(v), in_a && !in_b) << "v=" << v;
    EXPECT_EQ(uni.Contains(v), in_a || in_b) << "v=" << v;
  }
  // Counts are consistent.
  EXPECT_EQ(inter.Count() + diff.Count(), a.Count());
  EXPECT_EQ(uni.Count(), a.Count() + b.Count() - inter.Count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

// --- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
    const int64_t v = rng.NextInt(-5, 12);
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 12);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next64(), child.Next64());
}

TEST(ZipfTest, SamplesInRangeAndSkewed) {
  Rng rng(17);
  ZipfDistribution zipf(1000, 0.9);
  int64_t low_bucket = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Sample(rng);
    ASSERT_LT(v, 1000u);
    if (v < 100) ++low_bucket;
  }
  // Under uniform, ~10% of samples would land below 100; Zipf(0.9) puts far
  // more mass on small ranks.
  EXPECT_GT(low_bucket, n / 3);
}

TEST(ZipfTest, ThetaNearZeroApproachesUniform) {
  Rng rng(18);
  ZipfDistribution zipf(100, 0.05);
  int64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 50) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.12);
}

TEST(RandomPermutationTest, IsPermutation) {
  Rng rng(4);
  const auto perm = RandomPermutation(100, rng);
  std::set<uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

// --- TextTable --------------------------------------------------------

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "rows"});
  t.AddRow({"item", "1800"});
  t.AddRow({"store_sales", "28800"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name        | rows  |"), std::string::npos);
  EXPECT_NE(out.find("| store_sales | 28800 |"), std::string::npos);
}

TEST(TextTableTest, CellFormatsDouble) {
  EXPECT_EQ(TextTable::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Cell(int64_t{42}), "42");
}

TEST(HistogramTest, RendersBars) {
  const std::string h = RenderHistogram({"a", "bb"}, {10, 5}, 10);
  EXPECT_NE(h.find("a  | ########## 10"), std::string::npos);
  EXPECT_NE(h.find("bb | ##### 5"), std::string::npos);
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3ull << 30), "3.0 GiB");
}

TEST(FormatTest, Duration) {
  EXPECT_EQ(FormatDuration(0.0005), "500 us");
  EXPECT_EQ(FormatDuration(0.25), "250.0 ms");
  EXPECT_EQ(FormatDuration(58), "58.0 s");
  EXPECT_EQ(FormatDuration(660), "11.0 min");
  EXPECT_EQ(FormatDuration(5760), "1.6 h");
}

TEST(FormatTest, Count) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(5500000), "5,500,000");
}

}  // namespace
}  // namespace hydra
