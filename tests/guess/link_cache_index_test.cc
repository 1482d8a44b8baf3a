// Equivalence of the incremental ScoreIndex selection paths with the legacy
// full-scan paths: a cache with configure_indices() and an unconfigured
// cache fed the *identical* operation sequence must make bitwise-identical
// decisions — same offer outcomes, same victims, same select_best /
// select_top orders, same entries — for every deterministic policy, with
// first-hand-only flipped mid-stream. This is the contract that let the
// network switch to indexed selection without perturbing a single pinned
// result.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "guess/link_cache.h"

namespace guess {
namespace {

constexpr PeerId kOwner = 424242;

bool entry_eq(const CacheEntry& a, const CacheEntry& b) {
  return a.id == b.id && a.ts == b.ts && a.num_files == b.num_files &&
         a.num_res == b.num_res && a.first_hand == b.first_hand;
}

void expect_same_entries(const LinkCache& indexed, const LinkCache& legacy) {
  auto a = indexed.entries();
  auto b = legacy.entries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(entry_eq(a[i], b[i]))
        << "entry " << i << " diverged (indexed id " << a[i].id
        << " vs legacy id " << b[i].id << ")";
  }
}

struct Pair {
  LinkCache indexed;
  LinkCache legacy;
  // Separate but identically seeded streams so a draw on one side cannot
  // perturb the other; equivalence requires both sides to consume the same
  // draw sequence.
  Rng rng_indexed;
  Rng rng_legacy;

  Pair(std::size_t capacity, std::initializer_list<Policy> selections,
       Replacement retention, std::uint64_t seed)
      : indexed(kOwner, capacity),
        legacy(kOwner, capacity),
        rng_indexed(seed),
        rng_legacy(seed) {
    indexed.configure_indices(selections, retention);
    // `legacy` stays unconfigured: every selection and retention decision
    // takes the full-scan path.
  }
};

// Randomised churn on an indexed and an unconfigured cache of `capacity`
// entries, every deterministic retention policy in turn. Besides offers,
// misses and hits on touch / set_num_res / evict, the mix swap-removes the
// last position and evicts residents while narrow score ranges keep many of
// them tied, and flips the MR* lens mid-run.
void churn_equivalence(std::size_t capacity) {
  const std::vector<Policy> kSelections = {Policy::kMRU, Policy::kLRU,
                                           Policy::kMFS, Policy::kMR};
  const std::vector<Replacement> kRetentions = {
      Replacement::kLRU, Replacement::kMRU, Replacement::kLFS,
      Replacement::kLR};

  for (Replacement retention : kRetentions) {
    SCOPED_TRACE("retention " + std::to_string(static_cast<int>(retention)));
    Pair caches(capacity,
                {Policy::kMRU, Policy::kLRU, Policy::kMFS, Policy::kMR},
                retention, /*seed=*/99);
    Rng driver(7 + static_cast<std::uint64_t>(retention));
    bool filled = false;

    for (int step = 0; step < 3000; ++step) {
      double roll = driver.uniform();
      if (roll < 0.45) {
        // Offer a candidate; collisions with the owner, residents and ties
        // in every score dimension are all exercised by the narrow ranges.
        CacheEntry candidate;
        candidate.id = driver.index(40);
        candidate.ts = static_cast<sim::Time>(driver.index(20));
        candidate.num_files = static_cast<std::uint32_t>(driver.index(6));
        candidate.num_res = static_cast<std::uint32_t>(driver.index(4));
        candidate.first_hand = driver.bernoulli(0.3);
        bool a = caches.indexed.offer(candidate, retention,
                                      caches.rng_indexed);
        bool b = caches.legacy.offer(candidate, retention,
                                     caches.rng_legacy);
        ASSERT_EQ(a, b) << "offer decision diverged at step " << step;
      } else if (roll < 0.55) {
        PeerId victim = driver.index(40);
        ASSERT_EQ(caches.indexed.evict(victim), caches.legacy.evict(victim));
      } else if (roll < 0.58) {
        // Swap-removal of the last position (nothing moves into the hole).
        if (!caches.indexed.empty()) {
          PeerId last = caches.indexed.entries().back().id;
          ASSERT_TRUE(caches.indexed.evict(last));
          ASSERT_TRUE(caches.legacy.evict(last));
        }
      } else if (roll < 0.61) {
        // A resident chosen by position: with six NumFiles values and
        // twenty timestamps, most share a score with another entry.
        if (!caches.indexed.empty()) {
          auto entries = caches.indexed.entries();
          PeerId id = entries[driver.index(entries.size())].id;
          ASSERT_TRUE(caches.indexed.evict(id));
          ASSERT_TRUE(caches.legacy.evict(id));
        }
      } else if (roll < 0.67) {
        PeerId id = driver.index(40);
        sim::Time now = static_cast<sim::Time>(step);
        caches.indexed.touch(id, now);
        caches.legacy.touch(id, now);
      } else if (roll < 0.75) {
        PeerId id = driver.index(40);
        auto num_res = static_cast<std::uint32_t>(driver.index(5));
        caches.indexed.set_num_res(id, num_res);
        caches.legacy.set_num_res(id, num_res);
      } else if (roll < 0.80) {
        // Flip the MR* lens mid-stream: the indices must re-rank exactly
        // like the scans do.
        bool on = driver.bernoulli(0.5);
        caches.indexed.set_first_hand_only(on);
        caches.legacy.set_first_hand_only(on);
      } else if (roll < 0.90) {
        Policy policy = kSelections[driver.index(kSelections.size())];
        auto a = caches.indexed.select_best(policy, caches.rng_indexed);
        auto b = caches.legacy.select_best(policy, caches.rng_legacy);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          ASSERT_TRUE(entry_eq(*a, *b)) << "select_best diverged";
        }
      } else {
        Policy policy = kSelections[driver.index(kSelections.size())];
        // Half the selections are PongSize-5 pongs, the rest any count.
        std::size_t count = driver.bernoulli(0.5) ? 5 : 1 + driver.index(20);
        auto a = caches.indexed.select_top(policy, count,
                                           caches.rng_indexed);
        auto b = caches.legacy.select_top(policy, count,
                                          caches.rng_legacy);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_TRUE(entry_eq(a[i], b[i]))
              << "select_top order diverged at rank " << i;
        }
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_same_entries(caches.indexed, caches.legacy));
      filled = filled || caches.indexed.full();
    }
    EXPECT_TRUE(filled);  // the churn actually exercised replacement
  }
}

TEST(LinkCacheIndexEquivalence, RandomisedChurnAllDeterministicPolicies) {
  churn_equivalence(16);
}

// The ±1 capacity edges: caches of one to five entries, and 19/20/21, which
// straddle ScoreIndex::top_k's small-k branch (k*4 <= size) at PongSize 5.
class LinkCacheIndexEquivalenceCapacity
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinkCacheIndexEquivalenceCapacity, RandomisedChurn) {
  churn_equivalence(GetParam());
}

INSTANTIATE_TEST_SUITE_P(CapacityEdges, LinkCacheIndexEquivalenceCapacity,
                         ::testing::Values(1, 2, 3, 4, 5, 19, 20, 21));

// The largest cache a 16-bit position addresses: fill it, replace into it,
// select from it and swap-remove its last position, all identically to the
// scans.
TEST(LinkCacheIndexEquivalence, MaxCapacityFillReplaceAndEvictLast) {
  const std::size_t capacity = LinkCache::kMaxCapacity;
  Pair caches(capacity, {Policy::kLRU, Policy::kMFS, Policy::kMR},
              Replacement::kLR, /*seed=*/21);
  Rng driver(23);
  for (std::size_t i = 0; i < capacity; ++i) {
    CacheEntry entry;
    entry.id = i + 1;
    entry.ts = static_cast<sim::Time>(driver.index(1000));
    entry.num_files = static_cast<std::uint32_t>(driver.index(500));
    entry.num_res = static_cast<std::uint32_t>(driver.index(50));
    caches.indexed.insert_free(entry);
    caches.legacy.insert_free(entry);
  }
  ASSERT_TRUE(caches.indexed.full());
  ASSERT_EQ(caches.indexed.size(), capacity);
  EXPECT_THROW(caches.indexed.insert_free(CacheEntry{capacity + 1}),
               CheckError);
  // One more entry than a 16-bit position addresses is refused up front,
  // as is a wrapped negative size (which used to never finish sizing).
  EXPECT_THROW(LinkCache(kOwner, capacity + 1), CheckError);
  EXPECT_THROW(LinkCache(kOwner, static_cast<std::size_t>(-1)), CheckError);

  auto same_selections = [&]() {
    for (Policy policy : {Policy::kLRU, Policy::kMFS, Policy::kMR}) {
      auto a = caches.indexed.select_best(policy, caches.rng_indexed);
      auto b = caches.legacy.select_best(policy, caches.rng_legacy);
      ASSERT_TRUE(entry_eq(*a, *b));
      for (std::size_t count : {std::size_t{5}, capacity}) {
        auto ta = caches.indexed.select_top(policy, count,
                                            caches.rng_indexed);
        auto tb = caches.legacy.select_top(policy, count, caches.rng_legacy);
        ASSERT_EQ(ta.size(), tb.size());
        for (std::size_t i = 0; i < ta.size(); ++i) {
          ASSERT_TRUE(entry_eq(ta[i], tb[i])) << "rank " << i;
        }
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(same_selections());

  // Replacement into the full cache, then the last position goes.
  CacheEntry candidate{capacity + 7, 5.0, 7, 100};
  ASSERT_TRUE(caches.indexed.offer(candidate, Replacement::kLR,
                                   caches.rng_indexed));
  ASSERT_TRUE(
      caches.legacy.offer(candidate, Replacement::kLR, caches.rng_legacy));
  PeerId last = caches.indexed.entries().back().id;
  ASSERT_TRUE(caches.indexed.evict(last));
  ASSERT_TRUE(caches.legacy.evict(last));
  EXPECT_FALSE(caches.indexed.contains(last));
  EXPECT_EQ(caches.indexed.size(), capacity - 1);
  ASSERT_NO_FATAL_FAILURE(expect_same_entries(caches.indexed, caches.legacy));
  ASSERT_NO_FATAL_FAILURE(same_selections());

  // The freed last position is reusable.
  caches.indexed.insert_free(CacheEntry{last, 1.0, 1, 1});
  caches.legacy.insert_free(CacheEntry{last, 1.0, 1, 1});
  EXPECT_TRUE(caches.indexed.full());
  ASSERT_NO_FATAL_FAILURE(expect_same_entries(caches.indexed, caches.legacy));
}

// kRandom draws per decision and is deliberately never indexed; both sides
// take the same draw-consuming path, so equivalence must hold trivially —
// pinned here so a future "optimisation" of the random path can't silently
// skew draw order against an unconfigured cache.
TEST(LinkCacheIndexEquivalence, RandomPolicyKeepsIdenticalDrawSequence) {
  Pair caches(8, {Policy::kMRU}, Replacement::kRandom, /*seed=*/5);
  Rng driver(11);
  for (int step = 0; step < 500; ++step) {
    CacheEntry candidate;
    candidate.id = driver.index(24);
    candidate.ts = static_cast<sim::Time>(step);
    bool a = caches.indexed.offer(candidate, Replacement::kRandom,
                                  caches.rng_indexed);
    bool b = caches.legacy.offer(candidate, Replacement::kRandom,
                                 caches.rng_legacy);
    ASSERT_EQ(a, b);
    auto ta = caches.indexed.select_top(Policy::kRandom, 4,
                                        caches.rng_indexed);
    auto tb = caches.legacy.select_top(Policy::kRandom, 4,
                                       caches.rng_legacy);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_TRUE(entry_eq(ta[i], tb[i]));
    }
    expect_same_entries(caches.indexed, caches.legacy);
  }
  // Both streams consumed the same number of draws: the next raw outputs
  // agree.
  EXPECT_EQ(caches.rng_indexed.engine()(), caches.rng_legacy.engine()());
}

// select_top_into must be a pure allocation shape change: identical output
// to select_top, draw for draw.
TEST(LinkCacheIndexEquivalence, SelectTopIntoMatchesSelectTop) {
  Pair caches(12, {Policy::kMFS, Policy::kLRU}, Replacement::kLR,
              /*seed=*/3);
  Rng driver(13);
  std::vector<CacheEntry> out;
  for (int step = 0; step < 400; ++step) {
    CacheEntry candidate;
    candidate.id = driver.index(30);
    candidate.ts = static_cast<sim::Time>(driver.index(10));
    candidate.num_files = static_cast<std::uint32_t>(driver.index(8));
    caches.indexed.offer(candidate, Replacement::kLR, caches.rng_indexed);
    caches.legacy.offer(candidate, Replacement::kLR, caches.rng_legacy);

    Policy policy = driver.bernoulli(0.5) ? Policy::kMFS : Policy::kLRU;
    std::size_t count = 1 + driver.index(14);
    caches.indexed.select_top_into(policy, count, caches.rng_indexed, out);
    auto expected = caches.legacy.select_top(policy, count,
                                             caches.rng_legacy);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(entry_eq(out[i], expected[i]));
    }
  }
}

}  // namespace
}  // namespace guess
