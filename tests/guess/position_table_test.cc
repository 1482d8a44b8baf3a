// PositionTable: the link cache's fixed-capacity id -> position index. Its
// slots hold 16-bit positions only and read each key from the entry at that
// position, so every case keeps an entries array beside the table. Unit
// tests for the checked API, directed cases for the open-addressing edges
// (chains that wrap past the table end, backward-shift erase from inside a
// cluster, reinsert after erase), plus a randomized model check against
// std::unordered_map.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "guess/link_cache.h"

namespace guess {
namespace {

constexpr PositionTable::Pos kNone = PositionTable::kNone;

// A table plus the entries it indexes, with free-position bookkeeping like
// the cache's: a key lives at one position, and its entry holds the key.
struct Indexed {
  explicit Indexed(std::size_t capacity)
      : table(capacity), entries(capacity) {
    for (std::size_t p = capacity; p-- > 0;) free.push_back(p);
  }

  std::size_t insert(PeerId id) {
    std::size_t pos = free.back();
    free.pop_back();
    table.insert(id, pos, entries);
    entries[pos].id = id;
    return pos;
  }

  bool erase(PeerId id) {
    PositionTable::Pos pos = table.find(id, entries);
    if (!table.erase(id, entries)) return false;
    entries[pos].id = kInvalidPeer;
    free.push_back(pos);
    return true;
  }

  // Move `id` to a fresh position (the cache's swap-remove repoint).
  std::size_t move(PeerId id) {
    PositionTable::Pos old = table.find(id, entries);
    std::size_t pos = free.back();
    free.pop_back();
    entries[pos].id = id;
    table.assign(id, pos, entries);
    entries[old].id = kInvalidPeer;
    free.push_back(old);
    return pos;
  }

  PositionTable::Pos find(PeerId id) const {
    return table.find(id, entries);
  }

  PositionTable table;
  std::vector<CacheEntry> entries;
  std::vector<std::size_t> free;
};

// The first `count` ids (from 1 up) whose probe chains start at `home`.
std::vector<PeerId> ids_homed_at(const PositionTable& table, std::size_t home,
                                 std::size_t count) {
  std::vector<PeerId> ids;
  for (PeerId id = 1; ids.size() < count; ++id) {
    if (table.home_slot(id) == home) ids.push_back(id);
  }
  return ids;
}

TEST(PositionTable, InsertFindErase) {
  Indexed map(8);
  EXPECT_EQ(map.find(3), kNone);
  std::size_t pos = map.insert(3);
  EXPECT_EQ(map.find(3), pos);
  EXPECT_EQ(map.table.size(), 1u);
  EXPECT_TRUE(map.erase(3));
  EXPECT_EQ(map.find(3), kNone);
  EXPECT_FALSE(map.erase(3));
  EXPECT_EQ(map.table.size(), 0u);
}

TEST(PositionTable, AssignRepointsExisting) {
  Indexed map(4);
  std::size_t first = map.insert(7);
  std::size_t second = map.move(7);
  EXPECT_NE(first, second);
  EXPECT_EQ(map.find(7), second);
  EXPECT_EQ(map.table.size(), 1u);
}

TEST(PositionTable, CheckedMisuseThrows) {
  Indexed map(2);
  map.insert(1);
  EXPECT_THROW(map.table.insert(1, 1, map.entries),
               CheckError);  // duplicate
  EXPECT_THROW(map.table.assign(99, 0, map.entries),
               CheckError);  // missing key
  map.insert(2);
  EXPECT_THROW(map.table.insert(3, 0, map.entries),
               CheckError);  // over capacity
}

TEST(PositionTable, SizedForHalfLoadWithSixteenBitSlots) {
  // The cache's default CacheSize of 100 takes 256 two-byte slots.
  PositionTable table(100);
  EXPECT_EQ(table.slot_count(), 256u);
  PositionTable largest(LinkCache::kMaxCapacity);
  EXPECT_GE(largest.slot_count(), 2 * LinkCache::kMaxCapacity);
}

TEST(PositionTable, ChainWrapsPastTableEnd) {
  Indexed map(4);  // 8 slots
  const std::size_t last = map.table.slot_count() - 1;
  // Three keys homed at the last slot occupy it and wrap into slots 0, 1;
  // a key homed at slot 0 then has to probe past the wrapped ones.
  std::vector<PeerId> wrapped = ids_homed_at(map.table, last, 3);
  PeerId at_zero = ids_homed_at(map.table, 0, 1)[0];
  for (PeerId id : wrapped) map.insert(id);
  std::size_t zero_pos = map.insert(at_zero);
  for (PeerId id : wrapped) ASSERT_NE(map.find(id), kNone) << id;
  EXPECT_EQ(map.find(at_zero), zero_pos);

  // Erasing the chain's head at the table end shifts the wrapped members
  // (and the slot-0 key) back without losing any of them.
  ASSERT_TRUE(map.erase(wrapped[0]));
  EXPECT_EQ(map.find(wrapped[0]), kNone);
  EXPECT_NE(map.find(wrapped[1]), kNone);
  EXPECT_NE(map.find(wrapped[2]), kNone);
  EXPECT_EQ(map.find(at_zero), zero_pos);
  ASSERT_TRUE(map.erase(wrapped[2]));
  EXPECT_NE(map.find(wrapped[1]), kNone);
  EXPECT_EQ(map.find(at_zero), zero_pos);
}

TEST(PositionTable, BackwardShiftEraseFromClusterMiddle) {
  Indexed map(8);  // 16 slots
  // A cluster of four keys homed at slot 5 (slots 5..8) followed by a key
  // homed at slot 6, which lands behind them at slot 9.
  std::vector<PeerId> cluster = ids_homed_at(map.table, 5, 4);
  PeerId tail = ids_homed_at(map.table, 6, 1)[0];
  std::unordered_map<PeerId, std::size_t> pos;
  for (PeerId id : cluster) pos[id] = map.insert(id);
  pos[tail] = map.insert(tail);

  ASSERT_TRUE(map.erase(cluster[1]));
  pos.erase(cluster[1]);
  EXPECT_EQ(map.find(cluster[1]), kNone);
  for (const auto& [id, p] : pos) EXPECT_EQ(map.find(id), p) << id;
  ASSERT_TRUE(map.erase(cluster[2]));
  pos.erase(cluster[2]);
  for (const auto& [id, p] : pos) EXPECT_EQ(map.find(id), p) << id;
  EXPECT_EQ(map.table.size(), pos.size());
}

TEST(PositionTable, ReinsertAfterErase) {
  Indexed map(4);
  std::vector<PeerId> chain = ids_homed_at(map.table, 2, 3);
  for (PeerId id : chain) map.insert(id);
  for (int round = 0; round < 3; ++round) {
    for (PeerId id : chain) {
      ASSERT_TRUE(map.erase(id));
      EXPECT_EQ(map.find(id), kNone);
      std::size_t p = map.insert(id);
      EXPECT_EQ(map.find(id), p);
    }
  }
  for (PeerId id : chain) EXPECT_NE(map.find(id), kNone);
  EXPECT_EQ(map.table.size(), chain.size());
}

TEST(PositionTableFuzz, MatchesUnorderedMapUnderChurn) {
  Rng rng(2026);
  constexpr std::size_t kCapacity = 40;
  Indexed map(kCapacity);
  std::unordered_map<PeerId, std::size_t> model;
  for (int step = 0; step < 30000; ++step) {
    // Narrow key range: long probe chains and constant erase/reinsert of
    // colliding keys — the backward-shift stress case.
    PeerId key = rng.index(96);
    double roll = rng.uniform();
    if (roll < 0.45) {
      if (!model.contains(key) && model.size() < kCapacity) {
        model.emplace(key, map.insert(key));
      }
    } else if (roll < 0.70) {
      ASSERT_EQ(map.erase(key), model.erase(key) > 0);
    } else if (roll < 0.85) {
      if (model.contains(key) && model.size() < kCapacity) {
        model[key] = map.move(key);
      }
    } else {
      auto it = model.find(key);
      ASSERT_EQ(map.find(key), it == model.end() ? kNone : it->second);
    }
    if (step % 128 == 0) {
      ASSERT_EQ(map.table.size(), model.size());
      for (PeerId k = 0; k < 96; ++k) {
        auto it = model.find(k);
        ASSERT_EQ(map.find(k), it == model.end() ? kNone : it->second)
            << "key " << k << " at step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace guess
