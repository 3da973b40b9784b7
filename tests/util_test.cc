#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "util/hilbert.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace bsio {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  for (std::size_t k : {0u, 1u, 5u, 20u}) {
    auto s = rng.sample_without_replacement(20, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (auto v : s) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleFullRangeIsPermutation) {
  Rng rng(17);
  auto s = rng.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// The per-draw weight accumulation ZipfTable replaced, kept verbatim as the
// reference: sum the weights r^-s, scale a uniform variate by the total and
// return the first rank whose running sum reaches it.
std::size_t zipf_reference(Rng& rng, std::size_t n, double s) {
  if (s == 0.0) return rng.uniform(n);
  double total = 0.0;
  for (std::size_t r = 1; r <= n; ++r)
    total += 1.0 / std::pow(static_cast<double>(r), s);
  double u = rng.uniform_double() * total;
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r), s);
    if (u <= acc) return r - 1;
  }
  return n - 1;
}

TEST(Rng, ZipfTableReproducesTheAccumulatingLoop) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{1024}})
    for (double s : {0.0, 0.5, 1.1, 2.0}) {
      const ZipfTable table(n, s);
      for (std::uint64_t seed : {1u, 7u, 7919u}) {
        Rng a(seed), b(seed);
        for (int i = 0; i < 2000; ++i)
          ASSERT_EQ(table.draw(a), zipf_reference(b, n, s))
              << "n " << n << " s " << s << " seed " << seed << " draw " << i;
        EXPECT_EQ(a(), b());  // both consumed the same variates
      }
    }
}

TEST(Hilbert, RoundTripBijection) {
  for (std::uint32_t side : {1u, 2u, 4u, 8u, 16u}) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::uint64_t d = 0; d < static_cast<std::uint64_t>(side) * side;
         ++d) {
      auto [x, y] = hilbert_d2xy(side, d);
      EXPECT_LT(x, side);
      EXPECT_LT(y, side);
      EXPECT_TRUE(seen.insert({x, y}).second) << "duplicate cell at d=" << d;
      EXPECT_EQ(hilbert_xy2d(side, x, y), d);
    }
  }
}

TEST(Hilbert, ConsecutiveIndicesAreAdjacentCells) {
  const std::uint32_t side = 16;
  auto [px, py] = hilbert_d2xy(side, 0);
  for (std::uint64_t d = 1; d < static_cast<std::uint64_t>(side) * side; ++d) {
    auto [x, y] = hilbert_d2xy(side, d);
    int dist = std::abs(static_cast<int>(x) - static_cast<int>(px)) +
               std::abs(static_cast<int>(y) - static_cast<int>(py));
    EXPECT_EQ(dist, 1) << "curve must move one cell at a time (d=" << d << ")";
    px = x;
    py = y;
  }
}

TEST(Stats, BasicAggregates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_DOUBLE_EQ(min_of(v), 1.0);
  EXPECT_DOUBLE_EQ(max_of(v), 5.0);
  EXPECT_DOUBLE_EQ(sum_of(v), 15.0);
  EXPECT_NEAR(stddev(v), std::sqrt(2.0), 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Stats, RunningMatchesBatch) {
  std::vector<double> v{3.5, -1.0, 7.25, 0.0, 2.5};
  RunningStats rs;
  for (double x : v) rs.add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(v), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.25);
}

TEST(Table, TextAndCsvRendering) {
  Table t({"alg", "time"});
  t.add_row({"IP", "1.50"});
  t.add_row({"BiPartition", "1.62"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::string text = t.to_text();
  EXPECT_NE(text.find("BiPartition"), std::string::npos);
  EXPECT_NE(text.find("alg"), std::string::npos);
  std::string csv = t.to_csv();
  EXPECT_NE(csv.find("IP,1.50"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialChars) {
  Table t({"a"});
  t.add_row({"x,y"});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Formatting, Adaptive) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_seconds(0.0123), "12.3ms");
  EXPECT_EQ(format_seconds(2.5), "2.50s");
  EXPECT_EQ(format_bytes(1536.0), "1.50 KB");
}

}  // namespace
}  // namespace bsio
