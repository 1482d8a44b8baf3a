// Epoch-stamped hash set of 32-bit keys.
//
// A per-query dedup set is filled, consulted, and thrown away thousands of
// times per simulated second. A node-based set pays an allocation per insert
// and a full walk per clear; this one is a flat open-addressing table whose
// clear() is a single epoch bump — slots stamped with an older epoch read as
// empty, so clearing is O(1) and steady-state operation never allocates
// (the table only grows, and only when the occupancy watermark is crossed).
//
// Slots are 8 bytes: a 32-bit key and a 32-bit epoch. Callers with wider
// ids (PeerId) keep them below 2^32 − 1 — GuessNetwork's id allocator checks
// that bound once per id, so the hot insert does not. The epoch counter
// wraps after 2^32 − 1 clears; the wrapping clear() zeroes every stamp once,
// so no slot from an earlier epoch can read as current.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace guess {

class EpochSet {
 public:
  EpochSet() { rehash(kMinSlots); }

  /// Ensure capacity for `n` keys without growth, at load factor <= 0.5.
  void reserve(std::size_t n) {
    std::size_t want = kMinSlots;
    while (want < n * 2) want *= 2;
    if (want > slots_.size()) rehash(want);
  }

  /// Forget every key. O(1): old entries are invalidated by the epoch bump,
  /// except once every 2^32 − 1 clears, when the wrapped epoch resets every
  /// slot's stamp.
  void clear() {
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  /// @returns true if `key` was newly inserted (false: already present).
  /// Growth waits until the load factor would pass 0.75: a set that outgrows
  /// its reservation is one long query's, and pooled executions keep that
  /// high-water table.
  bool insert(std::uint32_t key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    std::size_t i = mix(key) & mask_;
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {
        slot.key = key;
        slot.epoch = epoch_;
        ++size_;
        return true;
      }
      if (slot.key == key) return false;
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint32_t key) const {
    std::size_t i = mix(key) & mask_;
    for (;;) {
      const Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return false;
      if (slot.key == key) return true;
      i = (i + 1) & mask_;
    }
  }

  /// Bytes per table slot (the footprint gate in the allocation tests).
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t epoch = 0;  // 0 = never written (current epochs are >= 1)
  };
  static_assert(sizeof(Slot) == 8);

  // Test seam: lets the epoch-wrap test start a set near the wrap instead
  // of clearing it 2^32 times.
  friend struct EpochSetTestPeer;

  static constexpr std::size_t kMinSlots = 16;

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: full-avalanche mixing of sequential ids.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void rehash(std::size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    mask_ = new_slots - 1;
    std::uint32_t live_epoch = epoch_;
    epoch_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.epoch == live_epoch) insert(slot.key);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
};

}  // namespace guess
