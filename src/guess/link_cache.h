// The GUESS link cache (§2.1–2.2): a bounded list of pointers to other
// peers, maintained via Pings and fed by Pong entry sharing.
//
// Invariants: at most `capacity` entries; at most one entry per peer id;
// never contains the owner's own id.
//
// Hot-path structure: the id -> position index is a flat open-addressing
// table of 16-bit positions (PositionTable) sized once for the bounded
// capacity, and the policy orderings the run actually uses are maintained
// incrementally as ScoreIndex heaps of 16-bit positions (configure_indices),
// so select_best is O(1), select_top is O(k log n), and a full-cache offer
// decides accept/reject in O(1) — none of which rescores the whole cache or
// allocates. Neither structure stores an id or a score: both read them from
// entries_ (DESIGN.md §15). Policies that were not configured fall back to
// the legacy full-scan paths, which produce bitwise-identical selections
// (the index comparators replicate the scans' position tie-breaks exactly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "guess/cache_entry.h"
#include "guess/policy.h"
#include "guess/score_index.h"

namespace guess {

/// Open-addressing id -> position table over one cache's entries. Slots hold
/// positions only; the key of a slot holding position p is entries[p].id, so
/// every call takes the entries it indexes (as a span, so builds with
/// _GLIBCXX_ASSERTIONS bounds-check every key read). Deletion is by backward
/// shift (no tombstones), so churn never degrades the probe chains and never
/// allocates. The table is sized once to keep the load factor at or below
/// 0.5.
class PositionTable {
 public:
  using Pos = std::uint16_t;
  static constexpr Pos kNone = 0xFFFF;

  explicit PositionTable(std::size_t capacity) {
    // Checked before sizing: a capacity near SIZE_MAX would overflow the
    // doubling below and never stop.
    GUESS_CHECK_MSG(capacity <= kNone, "cache capacity must be <= "
                                           << kNone << ", got " << capacity);
    std::size_t want = 8;
    while (want < capacity * 2) want *= 2;
    slots_.assign(want, kNone);
    capacity_ = capacity;
  }

  std::size_t size() const { return size_; }
  std::size_t slot_count() const { return slots_.size(); }
  /// The slot a probe for `id` starts at (tests build colliding chains).
  std::size_t home_slot(PeerId id) const { return mix(id) & mask(); }

  /// Position of `id`, or kNone.
  Pos find(PeerId id, std::span<const CacheEntry> entries) const {
    for (std::size_t i = home_slot(id);; i = (i + 1) & mask()) {
      Pos pos = slots_[i];
      if (pos == kNone || entries[pos].id == id) return pos;
    }
  }

  /// Index a new key at `pos` (checked: absent, capacity not exceeded).
  /// entries[pos] need not hold `id` yet.
  void insert(PeerId id, std::size_t pos,
              std::span<const CacheEntry> entries) {
    GUESS_CHECK_MSG(size_ < capacity_, "PositionTable over capacity");
    for (std::size_t i = home_slot(id);; i = (i + 1) & mask()) {
      if (slots_[i] == kNone) {
        slots_[i] = static_cast<Pos>(pos);
        ++size_;
        return;
      }
      GUESS_CHECK_MSG(entries[slots_[i]].id != id,
                      "PositionTable duplicate insert");
    }
  }

  /// Repoint an existing key at `pos` (checked: present). Its old position
  /// must still hold `id`.
  void assign(PeerId id, std::size_t pos,
              std::span<const CacheEntry> entries) {
    for (std::size_t i = home_slot(id);; i = (i + 1) & mask()) {
      GUESS_CHECK_MSG(slots_[i] != kNone,
                      "PositionTable assign to missing key");
      if (entries[slots_[i]].id == id) {
        slots_[i] = static_cast<Pos>(pos);
        return;
      }
    }
  }

  /// Remove `id` if present; every indexed position must still hold its
  /// key. @returns true if a mapping was removed.
  bool erase(PeerId id, std::span<const CacheEntry> entries) {
    std::size_t i = home_slot(id);
    for (;; i = (i + 1) & mask()) {
      if (slots_[i] == kNone) return false;
      if (entries[slots_[i]].id == id) break;
    }
    // Backward-shift: pull subsequent chain members over the hole while
    // doing so shortens (never breaks) their probe distance.
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask(); slots_[j] != kNone;
         j = (j + 1) & mask()) {
      std::size_t home = home_slot(entries[slots_[j]].id);
      // Move j into the hole iff the hole lies cyclically within
      // [home, j): the element stays reachable from its home slot.
      if (((j - home) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kNone;
    --size_;
    return true;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::size_t mask() const { return slots_.size() - 1; }

  std::vector<Pos> slots_;  // positions; kNone = empty
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

class LinkCache {
 public:
  /// Largest capacity a cache can address: its positions 0..kMaxCapacity-1
  /// are 16-bit and never collide with the table's empty marker.
  static constexpr std::size_t kMaxCapacity = PositionTable::kNone;
  static_assert(sizeof(ScoreIndex::Pos) == sizeof(PositionTable::Pos));

  /// @param owner     id of the owning peer (own entries are rejected)
  /// @param capacity  the paper's CacheSize parameter
  LinkCache(PeerId owner, std::size_t capacity);

  /// Size this thread's selection scratch (shared by every cache the thread
  /// touches) for caches of up to `capacity` entries, so select_top_into
  /// never allocates on it afterwards. Selection grows the scratch on first
  /// use anyway; call this before an allocation-free phase.
  static void reserve_selection_scratch(std::size_t capacity);

  /// Maintain incremental score orderings for the given selection policies
  /// and retention policy (kRandom entries are ignored — random scores are
  /// per-decision draws and cannot be indexed). Call once after
  /// construction; selections under other policies use the legacy scans.
  void configure_indices(std::initializer_list<Policy> selection,
                         Replacement retention);

  /// First-hand-only mode (MR* / detection-triggered switch): ranking and
  /// retention treat NumRes values not set by the owner's own probes as 0.
  /// Stored and forwarded values are untouched (§2.2).
  void set_first_hand_only(bool enabled);
  bool first_hand_only() const { return first_hand_only_; }

  /// Eclipse resistance (DetectionParams::first_hand_floor): when > 0, a
  /// full cache refuses to replace a first-hand entry with a non-first-hand
  /// candidate while at most `floor` first-hand entries remain. Attack
  /// pongs are never first-hand, so a colluding cohort cannot displace the
  /// victim's last `floor` entries of direct experience. Evictions (dead or
  /// blacklisted peers) are unaffected.
  void set_first_hand_floor(std::size_t floor) { first_hand_floor_ = floor; }
  std::size_t first_hand_floor() const { return first_hand_floor_; }

  /// Number of entries whose NumRes is the owner's own observation
  /// (maintained incrementally; the floor guard and tests read it).
  std::size_t first_hand_count() const { return first_hand_count_; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.size() >= capacity_; }
  bool contains(PeerId id) const {
    return index_.find(id, entries_) != PositionTable::kNone;
  }

  /// All current entries (unspecified order; stable between mutations).
  std::span<const CacheEntry> entries() const { return entries_; }

  /// Entry for a peer, if present.
  std::optional<CacheEntry> get(PeerId id) const;

  /// Insert an entry without replacement pressure (cache must not be full,
  /// entry must not be present). Used when seeding a newborn's cache.
  void insert_free(const CacheEntry& entry);

  /// Offer a Pong-received candidate (§2.2): skipped if it is the owner or
  /// already cached; inserted directly if space remains; otherwise it
  /// replaces the replacement policy's victim iff its retention score beats
  /// the victim's. Fields are taken as-is (Pong entries are not updated on
  /// receipt). @returns true if the candidate was inserted.
  bool offer(const CacheEntry& candidate, Replacement policy, Rng& rng);

  /// Remove the entry for `id` (no-op if absent). Used when a probe finds
  /// the peer dead (or refusing, per §6.3's implicit throttling).
  /// @returns true if an entry was removed.
  bool evict(PeerId id);

  /// Update the TS field after an interaction with `id` (no-op if absent).
  void touch(PeerId id, sim::Time now);

  /// Overwrite NumRes after a query probe to `id` (no-op if absent); the
  /// value is now first-hand knowledge.
  void set_num_res(PeerId id, std::uint32_t num_res);

  /// Entry to contact next under a selection policy (highest score wins).
  /// @returns nullopt if the cache is empty.
  std::optional<CacheEntry> select_best(Policy policy, Rng& rng) const;

  /// Up to `count` entries for a Pong, preferred by the selection policy
  /// (highest scores first).
  std::vector<CacheEntry> select_top(Policy policy, std::size_t count,
                                     Rng& rng) const;

  /// Allocation-free select_top: clears and fills `out` (which keeps its
  /// capacity across calls — a warmed caller never allocates).
  void select_top_into(Policy policy, std::size_t count, Rng& rng,
                       std::vector<CacheEntry>& out) const;

  /// Number of entries matching a predicate — used by the cache-health
  /// metrics (fraction live, good entries).
  template <typename Pred>
  std::size_t count_if(Pred&& pred) const {
    std::size_t n = 0;
    for (const auto& e : entries_)
      if (pred(e)) ++n;
    return n;
  }

 private:
  struct SelectionIndex {
    Policy policy;
    ScoreIndex index;
  };

  /// Call fn(key) once with the priority function of a selection policy:
  /// key(pos) is entries_[pos]'s selection score. The policy and MR* switch
  /// are decided here, outside the heap's comparison loops.
  template <typename Fn>
  void with_selection_key(Policy policy, Fn&& fn) const;
  /// Same for the retention ordering: key(pos) is the NEGATED retention
  /// score, so the max heap keeps the eviction victim on top.
  template <typename Fn>
  void with_retention_key(Fn&& fn) const;

  void erase_at(std::size_t pos);
  /// Index maintenance after entries_.push_back / entries_[pos] = ...
  /// `changed` is a bitmask of the entry fields written (link_cache.cc).
  void note_insert();
  void note_update(std::size_t pos, unsigned changed);
  /// entries_[pos] takes `candidate`'s place (full-cache replacement).
  void replace_at(std::size_t pos, const CacheEntry& candidate);
  void rebuild_indices();
  const ScoreIndex* find_selection(Policy policy) const;
  /// The first-hand-floor guard: true iff replacing `victim` with
  /// `candidate` would dig into the protected first-hand reserve.
  bool floor_protects(std::size_t victim, const CacheEntry& candidate) const {
    return first_hand_floor_ > 0 && !candidate.first_hand &&
           entries_[victim].first_hand &&
           first_hand_count_ <= first_hand_floor_;
  }

  PeerId owner_;
  std::size_t capacity_;
  bool first_hand_only_ = false;
  std::size_t first_hand_floor_ = 0;
  std::size_t first_hand_count_ = 0;
  std::vector<CacheEntry> entries_;
  PositionTable index_;  // id -> position

  std::vector<SelectionIndex> selection_indices_;
  Replacement retention_policy_ = Replacement::kRandom;  // kRandom = none
  bool has_retention_index_ = false;
  ScoreIndex retention_index_;
};

}  // namespace guess
