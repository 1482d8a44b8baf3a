#include "common/zipf.h"

#include <gtest/gtest.h>

#include "common/check.h"

#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "../testsupport/bootstrap_reference.h"

namespace guess {
namespace {

class ZipfAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaTest, PmfSumsToOne) {
  ZipfDistribution zipf(500, GetParam());
  double sum = 0.0;
  for (std::size_t r = 0; r < zipf.n(); ++r) sum += zipf.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ZipfAlphaTest, PmfNonIncreasingInRank) {
  ZipfDistribution zipf(200, GetParam());
  for (std::size_t r = 1; r < zipf.n(); ++r) {
    EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1) + 1e-12);
  }
}

TEST_P(ZipfAlphaTest, SamplesStayInRange) {
  ZipfDistribution zipf(50, GetParam());
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.sample(rng), 50u);
  }
}

TEST_P(ZipfAlphaTest, EmpiricalFrequencyTracksPmf) {
  ZipfDistribution zipf(20, GetParam());
  Rng rng(7);
  std::vector<int> counts(20, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 20; ++r) {
    double observed = static_cast<double>(counts[r]) / trials;
    EXPECT_NEAR(observed, zipf.pmf(r), 0.01) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.5));

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfDistribution zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
  }
}

TEST(Zipf, HigherAlphaConcentratesHead) {
  ZipfDistribution flat(100, 0.5);
  ZipfDistribution skewed(100, 1.5);
  EXPECT_GT(skewed.pmf(0), flat.pmf(0));
  EXPECT_LT(skewed.pmf(99), flat.pmf(99));
}

TEST(Zipf, SingleRankAlwaysSamplesZero) {
  ZipfDistribution zipf(1, 1.0);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, InvalidParametersThrow) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), CheckError);
  EXPECT_THROW(ZipfDistribution(10, -0.1), CheckError);
  ZipfDistribution zipf(10, 1.0);
  EXPECT_THROW(zipf.pmf(10), CheckError);
}

TEST(Zipf, NormalizerMatchesDirectSum) {
  ZipfDistribution zipf(100, 0.8);
  double h = 0.0;
  for (std::size_t r = 1; r <= 100; ++r) {
    h += std::pow(static_cast<double>(r), -0.8);
  }
  EXPECT_NEAR(zipf.normalizer(), h, 1e-9);
}

// --- Frozen-reference equivalence of the guide-table search ---

class ZipfFrozenReferenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(ZipfFrozenReferenceTest, DrawsMatchFullBinarySearch) {
  auto [n, alpha] = GetParam();
  ZipfDistribution zipf(n, alpha);
  reference::Zipf frozen(n, alpha);
  Rng live(static_cast<std::uint64_t>(n) * 31 + 7);
  Rng ref(static_cast<std::uint64_t>(n) * 31 + 7);
  for (int i = 0; i < 1'000'000; ++i) {
    ASSERT_EQ(zipf.sample(live), frozen.sample(ref)) << "draw " << i;
  }
  EXPECT_EQ(live.engine()(), ref.engine()());
}

TEST_P(ZipfFrozenReferenceTest, RankOfMatchesAtEveryBoundary) {
  auto [n, alpha] = GetParam();
  ZipfDistribution zipf(n, alpha);
  reference::Zipf frozen(n, alpha);
  // Every guide-table bucket edge k/S, every CDF value, and the doubles
  // either side of each: where a narrowed search would go wrong first.
  const double buckets = static_cast<double>(std::bit_ceil(n));
  std::vector<double> edges = {0.0, -0.0, 1.0, 2.0, -1.0,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::denorm_min()};
  for (double k = 0.0; k <= buckets; k += 1.0) edges.push_back(k / buckets);
  for (double c : frozen.cdf()) edges.push_back(c);
  const std::size_t exact = edges.size();
  for (std::size_t i = 0; i < exact; ++i) {
    edges.push_back(std::nextafter(edges[i], -1.0));
    edges.push_back(std::nextafter(edges[i], 2.0));
  }
  for (double u : edges) {
    ASSERT_EQ(zipf.rank_of(u), frozen.rank_of(u)) << "u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ZipfFrozenReferenceTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{1024},
                                         std::size_t{8000}, std::size_t{10000}),
                       ::testing::Values(0.0, 0.8, 1.5)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_alpha" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

}  // namespace
}  // namespace guess
