#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/check.h"

#include <set>
#include <tuple>

#include "../testsupport/bootstrap_reference.h"

namespace guess {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntIsInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 5));
  EXPECT_EQ(seen, (std::set<std::int64_t>{1, 2, 3, 4, 5}));
}

TEST(Rng, IndexCoversRange) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, IndexOfZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), CheckError);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Rng, PickReturnsElementFromSpan) {
  Rng rng(19);
  std::vector<int> items = {10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    int v = rng.pick(std::span<const int>(items));
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(23);
  std::vector<int> items = {1, 2, 3, 4, 5, 6};
  auto copy = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, copy);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(29);
  Rng child = parent.split();
  // The child stream should not mirror the parent's subsequent output.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform() == child.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// --- property tests over (n, k) for distinct sampling ---

class SampleIndicesTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SampleIndicesTest, ReturnsKDistinctInRange) {
  auto [n, k] = GetParam();
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    auto sample = rng.sample_indices(n, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (auto idx : sample) EXPECT_LT(idx, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleIndicesTest,
    ::testing::Values(std::make_tuple(1, 0), std::make_tuple(1, 1),
                      std::make_tuple(10, 3), std::make_tuple(10, 10),
                      std::make_tuple(100, 5), std::make_tuple(100, 99),
                      std::make_tuple(1000, 2), std::make_tuple(7, 6)));

TEST(Rng, SampleIndicesKLargerThanNThrows) {
  Rng rng(37);
  EXPECT_THROW(rng.sample_indices(3, 4), CheckError);
}

// The allocation-free variant must draw the exact engine sequence of
// sample_indices: the network switched the query hot path to
// sample_indices_into, and every pinned result depends on the draws not
// shifting by a single call.
TEST(Rng, SampleIndicesIntoDrawIdentity) {
  Rng a(53);
  Rng b(53);
  std::vector<std::size_t> out;
  std::vector<std::size_t> scratch;
  // Sweep both branches (sparse k << n and dense k ~ n), interleaved so a
  // draw-count mismatch in any call desynchronises everything after it.
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {1, 0}, {1, 1}, {10, 3}, {10, 10}, {100, 5},
      {100, 99}, {1000, 2}, {7, 6}, {64, 32}};
  for (int round = 0; round < 50; ++round) {
    for (auto [n, k] : cases) {
      auto expected = a.sample_indices(n, k);
      b.sample_indices_into(n, k, out, scratch);
      ASSERT_EQ(out, expected) << "n=" << n << " k=" << k;
    }
  }
  // Same number of raw draws consumed overall.
  EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(Rng, SampleIndicesIntoMatchesFrozenReference) {
  // Straddle the dense/sparse switch (k*3 >= n) from both sides and
  // include sparse samples from k = 1 to thousands, interleaved over one
  // pair of generators and reused buffers, so a single extra or missing
  // draw desynchronises every later call.
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {1000, 1},      {1000, 5},      {1000, 17},    {1000, 333},
      {1000, 334},    {50000, 101},   {49, 16},      {49, 17},
      {100, 33},      {100, 34},      {100, 100},    {64, 0},
      {200000, 2000}, {7, 6},         {7, 2},        {8, 2}};
  Rng live(61);
  Rng ref(61);
  std::vector<std::size_t> out;
  std::vector<std::size_t> scratch;
  std::vector<std::size_t> ref_out;
  std::vector<std::size_t> ref_scratch;
  for (int round = 0; round < 40; ++round) {
    for (auto [n, k] : cases) {
      scratch.clear();  // keeps capacity; every branch rewrites what it reads
      live.sample_indices_into(n, k, out, scratch);
      reference::sample_indices_into(ref, n, k, ref_out, ref_scratch);
      ASSERT_EQ(out, ref_out) << "n=" << n << " k=" << k;
      // A caller that reserved n scratch entries never reallocates.
      ASSERT_LE(scratch.size(), n) << "n=" << n << " k=" << k;
    }
  }
  EXPECT_EQ(live.engine()(), ref.engine()());
}

TEST(Rng, SampleIndicesUniformity) {
  // Every index should be sampled with roughly equal frequency.
  Rng rng(41);
  std::vector<int> counts(10, 0);
  const int rounds = 20000;
  for (int round = 0; round < rounds; ++round) {
    for (auto idx : rng.sample_indices(10, 3)) ++counts[idx];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / rounds, 0.3, 0.03);
  }
}

}  // namespace
}  // namespace guess
