#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/parse_number.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thinning.h"

namespace m3dfl {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(8);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.next_gaussian());
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // 1/100! chance of flaking — effectively never
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(10);
  Rng child = a.fork();
  // The child stream differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, PickReturnsElementOfVector) {
  Rng rng(11);
  const std::vector<int> v = {5, 6, 7};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 5 || x == 6 || x == 7);
  }
}

TEST(AccumulatorTest, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.5, -3.0, 7.0, 0.0, 4.25};
  Accumulator acc;
  for (double x : xs) acc.add(x);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_DOUBLE_EQ(acc.mean(), mean_of(xs));
  EXPECT_NEAR(acc.stddev(), stddev_of(xs), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -3.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.0);
  EXPECT_NEAR(acc.sum(), 11.75, 1e-12);
}

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(AccumulatorTest, MergeEqualsSequential) {
  Rng rng(12);
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_gaussian() * 3 + 1;
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(AccumulatorTest, MergeWithEmptySides) {
  Accumulator a;
  Accumulator b;
  b.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
}

TEST(StatsTest, CorrelationOfLinearDataIsOne) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 5.0);
  }
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-9);
  for (double& v : y) v = -v;
  EXPECT_NEAR(correlation(x, y), -1.0, 1e-9);
}

TEST(StatsTest, CorrelationDegenerateIsZero) {
  const std::vector<double> x = {1, 1, 1};
  const std::vector<double> y = {1, 2, 3};
  EXPECT_EQ(correlation(x, y), 0.0);
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a   | long-header |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4           |"), std::string::npos);
}

TEST(TableTest, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, Formatting) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::pct(0.983, 1), "98.3%");
  EXPECT_EQ(TablePrinter::delta_pct(0.329, 1), "(+32.9%)");
  EXPECT_EQ(TablePrinter::delta_pct(-0.008, 1), "(-0.8%)");
}

TEST(ParseNumberTest, AcceptsWholeNumbersOfTheTargetType) {
  std::int32_t i = 0;
  EXPECT_TRUE(parse_number("-42", i));
  EXPECT_EQ(i, -42);
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_number("18446744073709551615", u));
  EXPECT_EQ(u, 18446744073709551615ull);
  double d = 0.0;
  EXPECT_TRUE(parse_number("1e-4", d));
  EXPECT_DOUBLE_EQ(d, 1e-4);
  EXPECT_TRUE(parse_number("-2.5", d));
  EXPECT_DOUBLE_EQ(d, -2.5);
}

TEST(ParseNumberTest, RejectsPartialSignedAndOutOfRangeText) {
  std::int32_t i = 7;
  for (const char* bad : {"", "2x", " 2", "2 ", "+2", "0x10", "2147483648"}) {
    EXPECT_FALSE(parse_number(bad, i)) << bad;
  }
  EXPECT_EQ(i, 7);  // untouched on failure
  std::uint64_t u = 7;
  EXPECT_FALSE(parse_number("-1", u));
  EXPECT_FALSE(parse_number("18446744073709551616", u));
  EXPECT_EQ(u, 7u);
  double d = 7.0;
  for (const char* bad : {"1e9junk", "inf", "nan", "1e999", "."}) {
    EXPECT_FALSE(parse_number(bad, d)) << bad;
  }
  EXPECT_DOUBLE_EQ(d, 7.0);
}

TEST(ThinningTest, IdentityWhenUnderCap) {
  for (std::size_t size : {0u, 1u, 5u, 60u}) {
    const std::vector<std::size_t> kept = uniform_stride_indices(size, 60);
    ASSERT_EQ(kept.size(), size);
    for (std::size_t i = 0; i < size; ++i) EXPECT_EQ(kept[i], i);
  }
  // A non-positive cap means "no thinning".
  const std::vector<std::size_t> uncapped = uniform_stride_indices(100, 0);
  EXPECT_EQ(uncapped.size(), 100u);
}

TEST(ThinningTest, StrideSelectionIsAscendingUniqueAndSpansRange) {
  for (std::size_t size : {61u, 100u, 997u, 5000u}) {
    for (std::int32_t cap : {1, 2, 7, 60}) {
      const std::vector<std::size_t> kept = uniform_stride_indices(size, cap);
      ASSERT_EQ(kept.size(), static_cast<std::size_t>(cap))
          << "size=" << size << " cap=" << cap;
      EXPECT_EQ(kept.front(), 0u);
      EXPECT_LT(kept.back(), size);
      for (std::size_t i = 1; i < kept.size(); ++i) {
        EXPECT_LT(kept[i - 1], kept[i]);
      }
    }
  }
}

TEST(ThinningTest, DeterministicForSameSizeAndCap) {
  const std::vector<std::size_t> a = uniform_stride_indices(997, 60);
  const std::vector<std::size_t> b = uniform_stride_indices(997, 60);
  EXPECT_EQ(a, b);
}

TEST(ThinningTest, ThinInPlaceKeepsSelectedElementsAndReportsIndices) {
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i * 10);
  std::vector<int> original = items;
  const std::vector<std::size_t> kept = thin_uniform_stride(items, 7);
  ASSERT_EQ(items.size(), 7u);
  ASSERT_EQ(kept.size(), 7u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(items[i], original[kept[i]]);
  }
  // Under the cap: untouched, identity index map.
  std::vector<int> small = {4, 5, 6};
  const std::vector<std::size_t> ident = thin_uniform_stride(small, 60);
  EXPECT_EQ(small, (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(ident, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ErrorTest, AssertMacroThrows) {
  EXPECT_THROW(M3DFL_ASSERT(1 == 2), Error);
  EXPECT_NO_THROW(M3DFL_ASSERT(1 == 1));
  EXPECT_THROW(M3DFL_REQUIRE(false, "boom"), Error);
}

}  // namespace
}  // namespace m3dfl
