// EpochSet: the per-query dedup set whose clear() is an epoch bump. Unit
// tests over the 32-bit key domain (both ends of the PeerId range a query
// can see, and the wrap of the 32-bit epoch counter) plus a randomized model
// check against std::unordered_set across many clear cycles (the epoch
// mechanism must never leak keys between cycles, including across
// rehashes).
#include "common/epoch_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "common/rng.h"

namespace guess {

// The seam EpochSet befriends: jumps the epoch counter as if clear() had run
// until it read `epoch`, so the wrap is reachable without 2^32 clears.
struct EpochSetTestPeer {
  static void jump_epoch(EpochSet& set, std::uint32_t epoch) {
    set.epoch_ = epoch;
    set.size_ = 0;
  }
};

namespace {

// The largest key a query execution passes: GuessNetwork hands out ids
// below kPeerIdLimit (2^32 − 1).
constexpr std::uint32_t kTopKey = 0xFFFFFFFEu;

TEST(EpochSet, InsertAndContains) {
  EpochSet set;
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.insert(7));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.insert(7));  // duplicate
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert(8));
  EXPECT_EQ(set.size(), 2u);
}

TEST(EpochSet, ClearForgetsEverything) {
  EpochSet set;
  for (std::uint32_t k = 0; k < 100; ++k) set.insert(k);
  EXPECT_EQ(set.size(), 100u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  for (std::uint32_t k = 0; k < 100; ++k) {
    EXPECT_FALSE(set.contains(k)) << "key " << k << " survived clear()";
    EXPECT_TRUE(set.insert(k));  // reinsertable as fresh
  }
}

TEST(EpochSet, ZeroKeyIsAnOrdinaryKey) {
  // Slot.key defaults to 0; an inserted 0 must still be distinguishable
  // from an empty slot (the epoch stamp carries occupancy, not the key).
  EpochSet set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  set.clear();
  EXPECT_FALSE(set.contains(0));
}

TEST(EpochSet, BoundaryKeysAreOrdinaryKeys) {
  // Key 0 (what an unwritten slot holds) and the top of the id range share
  // one table with neighbours on both sides; each reads back on its own.
  EpochSet set;
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.contains(kTopKey));
  EXPECT_TRUE(set.insert(kTopKey));
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.insert(kTopKey - 1));
  EXPECT_FALSE(set.insert(0));
  EXPECT_FALSE(set.insert(kTopKey));
  EXPECT_FALSE(set.contains(0xFFFFFFFFu));
  EXPECT_EQ(set.size(), 4u);
  // Survive growth, then vanish with the epoch.
  for (std::uint32_t k = 2; k < 300; ++k) set.insert(k * 7919u);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(kTopKey));
  set.clear();
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(kTopKey));
  EXPECT_TRUE(set.insert(kTopKey));
}

TEST(EpochSet, EpochWrapForgetsStaleKeysAndKeepsCurrentOnes) {
  EpochSet set;
  // Stamped with epoch 1, the value the counter returns to after wrapping:
  // without the wrap's reset this slot would read as current again.
  ASSERT_TRUE(set.insert(11));
  EpochSetTestPeer::jump_epoch(set, 0xFFFFFFFEu);
  EXPECT_FALSE(set.contains(11));
  ASSERT_TRUE(set.insert(22));
  set.clear();  // epoch 0xFFFFFFFF, the last before the wrap
  ASSERT_TRUE(set.insert(33));
  EXPECT_TRUE(set.contains(33));
  set.clear();  // wraps
  EXPECT_EQ(set.size(), 0u);
  for (std::uint32_t stale : {11u, 22u, 33u}) {
    EXPECT_FALSE(set.contains(stale)) << "key " << stale;
  }
  // Keys of the first epoch after the wrap survive a rehash; stale ones
  // stay gone.
  ASSERT_TRUE(set.insert(22));
  ASSERT_TRUE(set.insert(kTopKey));
  for (std::uint32_t k = 1000; k < 1100; ++k) ASSERT_TRUE(set.insert(k));
  EXPECT_TRUE(set.contains(22));
  EXPECT_TRUE(set.contains(kTopKey));
  for (std::uint32_t k = 1000; k < 1100; ++k) EXPECT_TRUE(set.contains(k));
  EXPECT_FALSE(set.contains(11));
  EXPECT_FALSE(set.contains(33));
  EXPECT_EQ(set.size(), 102u);
}

TEST(EpochSet, GrowthPreservesCurrentEpochOnly) {
  EpochSet set;
  set.insert(1);
  set.clear();
  // Force rehash while stale (epoch-invalidated) slots still hold old keys.
  for (std::uint32_t k = 100; k < 200; ++k) set.insert(k);
  EXPECT_FALSE(set.contains(1));
  for (std::uint32_t k = 100; k < 200; ++k) EXPECT_TRUE(set.contains(k));
}

TEST(EpochSet, ReserveAvoidsGrowthNotCorrectness) {
  EpochSet set;
  set.reserve(1000);
  for (std::uint32_t k = 0; k < 1000; ++k) EXPECT_TRUE(set.insert(k * 977));
  for (std::uint32_t k = 0; k < 1000; ++k) EXPECT_TRUE(set.contains(k * 977));
  EXPECT_FALSE(set.contains(977 * 1001));
}

TEST(EpochSetFuzz, MatchesUnorderedSetAcrossClearCycles) {
  Rng rng(42);
  EpochSet set;
  std::unordered_set<std::uint32_t> model;
  for (int step = 0; step < 20000; ++step) {
    double roll = rng.uniform();
    if (roll < 0.02) {
      set.clear();
      model.clear();
    } else {
      // Narrow key range: plenty of duplicate inserts and hash collisions.
      std::uint32_t key = rng.index(512);
      ASSERT_EQ(set.insert(key), model.insert(key).second);
    }
    if (step % 64 == 0) {
      ASSERT_EQ(set.size(), model.size());
      for (std::uint32_t k = 0; k < 512; ++k) {
        ASSERT_EQ(set.contains(k), model.contains(k)) << "key " << k;
      }
    }
  }
}

}  // namespace
}  // namespace guess
