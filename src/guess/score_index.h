// Incremental policy-score ordering over link-cache positions.
//
// The legacy select_best / select_top / offer paths rescanned (and rescored)
// every cache entry per call. A ScoreIndex keeps one policy's ordering as an
// indexed binary heap of cache positions, updated as entries are inserted,
// evicted, replaced, or refreshed — O(log n) per mutation, O(1) for the best
// entry, O(k log n) for a top-k.
//
// The heap stores 16-bit positions only; a position's score is read from
// the cache's entries through a key function the caller picks once per
// operation (LinkCache dispatches on policy and first-hand mode outside the
// sift loops). The key returns a priority — larger is better — so one max
// heap serves both selection (priority = selection score) and retention
// (priority = negated retention score, the victim on top).
//
// Determinism contract: the heap's comparator is exactly the legacy scan's
// tie-break — the best entry is the strict priority optimum at the LOWEST
// current position (the scans kept the first maximum/minimum), and top-k
// pops in (priority desc, position asc) order, matching the legacy
// partial_sort comparator. Since (priority, position) pairs are unique, the
// heap layout cannot influence results: pops follow the total order.
//
// Positions are live indices into LinkCache::entries_, which swap-removes:
// on_swap_remove() both deletes the evicted position and re-keys the entry
// that moved into it. Every call reads scores of positions still in the
// heap, so the entries must already hold their new values (and a removed
// position's successor must not yet be popped) when the index is told.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace guess {

class ScoreIndex {
 public:
  using Pos = std::uint16_t;

  void reset(std::size_t capacity) {
    heap_.clear();
    heap_.reserve(capacity);
    slot_of_.clear();
    slot_of_.reserve(capacity);
  }

  std::size_t size() const { return heap_.size(); }

  /// Entry appended at position `pos` (== previous size).
  template <typename Key>
  void on_insert(std::size_t pos, Key key) {
    GUESS_CHECK(pos == heap_.size());
    heap_.push_back(static_cast<Pos>(pos));
    slot_of_.push_back(static_cast<Pos>(pos));
    sift_up(heap_.size() - 1, key);
  }

  /// Entry at `pos` re-scored in place (touch / set_num_res / replacement).
  template <typename Key>
  void on_update(std::size_t pos, Key key) {
    resift(slot_of_[pos], key);
  }

  /// LinkCache::erase_at(pos): the entry at `pos` is gone and the entry
  /// previously at `last` (== size-1) now lives at `pos`. `key(pos)` must
  /// already read the moved entry.
  template <typename Key>
  void on_swap_remove(std::size_t pos, std::size_t last, Key key) {
    remove_slot(slot_of_[pos], key);
    if (pos != last) {
      // The moved entry's score is unchanged but its tie-break position
      // dropped, which can only raise its priority.
      std::size_t slot = slot_of_[last];
      heap_[slot] = static_cast<Pos>(pos);
      slot_of_[pos] = static_cast<Pos>(slot);
      sift_up(slot, key);
    }
    slot_of_.pop_back();
  }

  /// The ordering's optimum: the position the legacy scan would have
  /// returned.
  std::size_t top() const {
    GUESS_CHECK(!heap_.empty());
    return heap_[0];
  }

  /// First `k` positions in selection order, appended to `out`. `scratch`
  /// holds the walk's frontier or a working copy of the heap; both keep
  /// their capacity across calls, so a warmed caller never allocates.
  template <typename Key>
  void top_k(std::size_t k, std::vector<Pos>& out, std::vector<Pos>& scratch,
             Key key) const {
    // Small k (the per-pong case: k=PongSize over a full cache): a
    // best-first walk down the heap. The next position in selection order
    // is always the best of a frontier that starts at the root and gains
    // the children of every position emitted, so only about 2k scores are
    // read instead of copying the heap and sifting it k times. `scratch`
    // holds the frontier's heap slots, sorted best-last. Output order is
    // the same either way: (priority, position) pairs are unique, so the
    // top-k in selection order is independent of how it is extracted.
    if (k > 0 && k * 4 <= heap_.size()) {
      scratch.clear();
      scratch.push_back(0);
      for (std::size_t i = 0;; ++i) {
        std::size_t slot = scratch.back();
        scratch.pop_back();
        out.push_back(heap_[slot]);
        if (i + 1 == k) return;
        for (std::size_t child = 2 * slot + 1;
             child <= 2 * slot + 2 && child < heap_.size(); ++child) {
          scratch.push_back(static_cast<Pos>(child));
          for (std::size_t j = scratch.size() - 1;
               j > 0 && better(heap_[scratch[j - 1]], heap_[child], key);
               --j) {
            std::swap(scratch[j], scratch[j - 1]);
          }
        }
      }
    }
    scratch = heap_;
    std::size_t n = scratch.size();
    for (std::size_t i = 0; i < k && n > 0; ++i) {
      out.push_back(scratch[0]);
      scratch[0] = scratch[--n];
      // Sift the promoted tail element down within scratch[0..n).
      std::size_t s = 0;
      for (;;) {
        std::size_t l = 2 * s + 1;
        if (l >= n) break;
        std::size_t best = l;
        if (l + 1 < n && better(scratch[l + 1], scratch[l], key)) best = l + 1;
        if (!better(scratch[best], scratch[s], key)) break;
        std::swap(scratch[s], scratch[best]);
        s = best;
      }
    }
  }

 private:
  template <typename Key>
  static bool better(Pos a, Pos b, Key key) {
    auto ka = key(a);
    auto kb = key(b);
    if (ka != kb) return ka > kb;
    return a < b;
  }

  template <typename Key>
  void sift_up(std::size_t slot, Key key) {
    while (slot > 0) {
      std::size_t parent = (slot - 1) / 2;
      if (!better(heap_[slot], heap_[parent], key)) break;
      swap_slots(slot, parent);
      slot = parent;
    }
  }

  template <typename Key>
  void sift_down(std::size_t slot, Key key) {
    for (;;) {
      std::size_t l = 2 * slot + 1;
      if (l >= heap_.size()) break;
      std::size_t best = l;
      if (l + 1 < heap_.size() && better(heap_[l + 1], heap_[l], key)) {
        best = l + 1;
      }
      if (!better(heap_[best], heap_[slot], key)) break;
      swap_slots(slot, best);
      slot = best;
    }
  }

  template <typename Key>
  void resift(std::size_t slot, Key key) {
    sift_up(slot, key);
    sift_down(slot, key);
  }

  template <typename Key>
  void remove_slot(std::size_t slot, Key key) {
    std::size_t back = heap_.size() - 1;
    if (slot != back) {
      swap_slots(slot, back);
      heap_.pop_back();
      resift(slot, key);
    } else {
      heap_.pop_back();
    }
  }

  void swap_slots(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    slot_of_[heap_[a]] = static_cast<Pos>(a);
    slot_of_[heap_[b]] = static_cast<Pos>(b);
  }

  std::vector<Pos> heap_;     // binary heap of positions, best on top
  std::vector<Pos> slot_of_;  // position -> heap slot
};

}  // namespace guess
