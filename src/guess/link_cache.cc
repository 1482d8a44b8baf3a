#include "guess/link_cache.h"

#include <algorithm>

#include "common/check.h"

namespace guess {

namespace {

/// Working buffers of the allocation-free selection paths. They live only
/// inside one select_top_into call, so one set per thread serves every cache
/// instead of four per cache.
struct SelectionScratch {
  std::vector<ScoreIndex::Pos> positions;
  std::vector<ScoreIndex::Pos> heap;
  std::vector<std::size_t> sample_out;
  std::vector<std::size_t> sample_scratch;
};

SelectionScratch& selection_scratch() {
  thread_local SelectionScratch scratch;
  return scratch;
}

/// CacheEntry fields a score can read, as a bitmask: an update re-sifts
/// only the orderings whose score reads a changed field (re-sifting an
/// unchanged score moves nothing).
enum Field : unsigned {
  kTsField = 1,
  kNumFilesField = 2,
  kNumResField = 4,  ///< num_res and first_hand
  kAllFields = 7,
};

unsigned score_fields(Policy policy) {
  switch (policy) {
    case Policy::kMRU:
    case Policy::kLRU:
      return kTsField;
    case Policy::kMFS:
      return kNumFilesField;
    case Policy::kMR:
      return kNumResField;
    case Policy::kRandom:
      break;
  }
  return kAllFields;
}

unsigned score_fields(Replacement policy) {
  switch (policy) {
    case Replacement::kLRU:
    case Replacement::kMRU:
      return kTsField;
    case Replacement::kLFS:
      return kNumFilesField;
    case Replacement::kLR:
      return kNumResField;
    case Replacement::kRandom:
      break;
  }
  return kAllFields;
}

}  // namespace

LinkCache::LinkCache(PeerId owner, std::size_t capacity)
    : owner_(owner), capacity_(capacity), index_(capacity) {
  // index_(capacity) has already rejected capacities above kMaxCapacity.
  GUESS_CHECK_MSG(capacity > 0, "cache capacity must be positive");
  entries_.reserve(capacity);
}

void LinkCache::reserve_selection_scratch(std::size_t capacity) {
  SelectionScratch& scratch = selection_scratch();
  scratch.positions.reserve(capacity);
  scratch.heap.reserve(capacity);
  scratch.sample_out.reserve(capacity);
  scratch.sample_scratch.reserve(capacity);
}

template <typename Fn>
void LinkCache::with_selection_key(Policy policy, Fn&& fn) const {
  // A span, so builds with _GLIBCXX_ASSERTIONS bounds-check every score
  // read (erase_at's ordering rule relies on it).
  std::span<const CacheEntry> e(entries_);
  switch (policy) {
    case Policy::kMRU:
      return fn([e](std::size_t p) { return e[p].ts; });
    case Policy::kLRU:
      return fn([e](std::size_t p) { return -e[p].ts; });
    case Policy::kMFS:
      return fn([e](std::size_t p) { return e[p].num_files; });
    case Policy::kMR:
      if (first_hand_only_) {
        return fn([e](std::size_t p) { return e[p].trusted_num_res(true); });
      }
      return fn([e](std::size_t p) { return e[p].num_res; });
    case Policy::kRandom:
      break;
  }
  GUESS_CHECK_MSG(false, "random policy has no deterministic score");
}

template <typename Fn>
void LinkCache::with_retention_key(Fn&& fn) const {
  std::span<const CacheEntry> e(entries_);
  auto neg = [](std::uint32_t v) { return -static_cast<std::int64_t>(v); };
  switch (retention_policy_) {
    case Replacement::kLRU:
      return fn([e](std::size_t p) { return -e[p].ts; });
    case Replacement::kMRU:
      return fn([e](std::size_t p) { return e[p].ts; });
    case Replacement::kLFS:
      return fn([e, neg](std::size_t p) { return neg(e[p].num_files); });
    case Replacement::kLR:
      if (first_hand_only_) {
        return fn([e, neg](std::size_t p) {
          return neg(e[p].trusted_num_res(true));
        });
      }
      return fn([e, neg](std::size_t p) { return neg(e[p].num_res); });
    case Replacement::kRandom:
      break;
  }
  GUESS_CHECK_MSG(false, "random replacement has no deterministic score");
}

void LinkCache::configure_indices(std::initializer_list<Policy> selection,
                                  Replacement retention) {
  selection_indices_.clear();
  selection_indices_.reserve(selection.size());
  for (Policy policy : selection) {
    if (policy == Policy::kRandom) continue;
    if (find_selection(policy) != nullptr) continue;  // dedupe
    selection_indices_.push_back(SelectionIndex{policy, ScoreIndex{}});
  }
  retention_policy_ = retention;
  has_retention_index_ = retention != Replacement::kRandom;
  rebuild_indices();
}

void LinkCache::set_first_hand_only(bool enabled) {
  if (first_hand_only_ == enabled) return;
  first_hand_only_ = enabled;
  // trusted_num_res changed for every non-first-hand entry: re-key.
  rebuild_indices();
}

void LinkCache::rebuild_indices() {
  for (SelectionIndex& sel : selection_indices_) {
    sel.index.reset(capacity_);
    with_selection_key(sel.policy, [&](auto key) {
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        sel.index.on_insert(i, key);
      }
    });
  }
  if (has_retention_index_) {
    retention_index_.reset(capacity_);
    with_retention_key([&](auto key) {
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        retention_index_.on_insert(i, key);
      }
    });
  }
}

const ScoreIndex* LinkCache::find_selection(Policy policy) const {
  for (const SelectionIndex& sel : selection_indices_) {
    if (sel.policy == policy) return &sel.index;
  }
  return nullptr;
}

void LinkCache::note_insert() {
  std::size_t pos = entries_.size() - 1;
  for (SelectionIndex& sel : selection_indices_) {
    with_selection_key(sel.policy,
                       [&](auto key) { sel.index.on_insert(pos, key); });
  }
  if (has_retention_index_) {
    with_retention_key([&](auto key) { retention_index_.on_insert(pos, key); });
  }
}

void LinkCache::note_update(std::size_t pos, unsigned changed) {
  for (SelectionIndex& sel : selection_indices_) {
    if ((score_fields(sel.policy) & changed) == 0) continue;
    with_selection_key(sel.policy,
                       [&](auto key) { sel.index.on_update(pos, key); });
  }
  if (has_retention_index_ &&
      (score_fields(retention_policy_) & changed) != 0) {
    with_retention_key([&](auto key) { retention_index_.on_update(pos, key); });
  }
}

std::optional<CacheEntry> LinkCache::get(PeerId id) const {
  PositionTable::Pos pos = index_.find(id, entries_);
  if (pos == PositionTable::kNone) return std::nullopt;
  return entries_[pos];
}

void LinkCache::insert_free(const CacheEntry& entry) {
  GUESS_CHECK(entry.id != owner_);
  GUESS_CHECK(!full());
  GUESS_CHECK(!contains(entry.id));
  index_.insert(entry.id, entries_.size(), entries_);
  entries_.push_back(entry);
  if (entry.first_hand) ++first_hand_count_;
  note_insert();
}

void LinkCache::replace_at(std::size_t pos, const CacheEntry& candidate) {
  if (entries_[pos].first_hand) --first_hand_count_;
  if (candidate.first_hand) ++first_hand_count_;
  index_.erase(entries_[pos].id, entries_);
  index_.insert(candidate.id, pos, entries_);
  entries_[pos] = candidate;
  note_update(pos, kAllFields);
}

bool LinkCache::offer(const CacheEntry& candidate, Replacement policy,
                      Rng& rng) {
  if (candidate.id == owner_ || contains(candidate.id)) return false;
  if (!full()) {
    index_.insert(candidate.id, entries_.size(), entries_);
    entries_.push_back(candidate);
    if (candidate.first_hand) ++first_hand_count_;
    note_insert();
    return true;
  }
  // Random replacement is the always-insert baseline: the candidate
  // replaces a uniformly chosen victim (documented in policy.h).
  if (policy == Replacement::kRandom) {
    std::size_t victim = rng.index(entries_.size());
    if (floor_protects(victim, candidate)) return false;
    replace_at(victim, candidate);
    return true;
  }
  // Victim = lowest retention score among current entries (first position
  // on ties). The maintained ordering answers in O(1); unconfigured
  // policies fall back to the scan, which picks the identical victim.
  std::size_t victim;
  double victim_score;
  if (has_retention_index_ && retention_policy_ == policy) {
    victim = retention_index_.top();
    victim_score =
        deterministic_retention_score(policy, entries_[victim],
                                      first_hand_only_);
  } else {
    victim = 0;
    victim_score =
        retention_score(policy, entries_[0], rng, first_hand_only_);
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      double s = retention_score(policy, entries_[i], rng, first_hand_only_);
      if (s < victim_score) {
        victim_score = s;
        victim = i;
      }
    }
  }
  if (deterministic_retention_score(policy, candidate, first_hand_only_) <=
      victim_score)
    return false;
  if (floor_protects(victim, candidate)) return false;
  replace_at(victim, candidate);
  return true;
}

void LinkCache::erase_at(std::size_t pos) {
  std::size_t last = entries_.size() - 1;
  if (entries_[pos].first_hand) --first_hand_count_;
  index_.erase(entries_[pos].id, entries_);
  if (pos != last) {
    entries_[pos] = entries_[last];
    index_.assign(entries_[pos].id, pos, entries_);
  }
  // The indices read scores from entries_: they must see the moved entry
  // at `pos` while `last` is still in place, so they update before the pop.
  for (SelectionIndex& sel : selection_indices_) {
    with_selection_key(sel.policy, [&](auto key) {
      sel.index.on_swap_remove(pos, last, key);
    });
  }
  if (has_retention_index_) {
    with_retention_key([&](auto key) {
      retention_index_.on_swap_remove(pos, last, key);
    });
  }
  entries_.pop_back();
}

bool LinkCache::evict(PeerId id) {
  PositionTable::Pos pos = index_.find(id, entries_);
  if (pos == PositionTable::kNone) return false;
  erase_at(pos);
  return true;
}

void LinkCache::touch(PeerId id, sim::Time now) {
  PositionTable::Pos pos = index_.find(id, entries_);
  if (pos == PositionTable::kNone) return;
  entries_[pos].ts = now;
  note_update(pos, kTsField);
}

void LinkCache::set_num_res(PeerId id, std::uint32_t num_res) {
  PositionTable::Pos pos = index_.find(id, entries_);
  if (pos == PositionTable::kNone) return;
  if (!entries_[pos].first_hand) ++first_hand_count_;
  entries_[pos].num_res = num_res;
  entries_[pos].first_hand = true;
  note_update(pos, kNumResField);
}

std::optional<CacheEntry> LinkCache::select_best(Policy policy,
                                                 Rng& rng) const {
  if (entries_.empty()) return std::nullopt;
  // Uniform pick is the argmax of i.i.d. random scores — skip the scan.
  if (policy == Policy::kRandom) return entries_[rng.index(entries_.size())];
  if (const ScoreIndex* index = find_selection(policy)) {
    return entries_[index->top()];
  }
  std::size_t best = 0;
  double best_score =
      selection_score(policy, entries_[0], rng, first_hand_only_);
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    double s = selection_score(policy, entries_[i], rng, first_hand_only_);
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return entries_[best];
}

std::vector<CacheEntry> LinkCache::select_top(Policy policy,
                                              std::size_t count,
                                              Rng& rng) const {
  std::vector<CacheEntry> out;
  select_top_into(policy, count, rng, out);
  return out;
}

void LinkCache::select_top_into(Policy policy, std::size_t count, Rng& rng,
                                std::vector<CacheEntry>& out) const {
  out.clear();
  count = std::min(count, entries_.size());
  if (count == 0) return;
  if (out.capacity() < count) out.reserve(count);
  SelectionScratch& scratch = selection_scratch();
  // A uniform k-subset is the top-k of i.i.d. random scores — skip the sort.
  if (policy == Policy::kRandom) {
    rng.sample_indices_into(entries_.size(), count, scratch.sample_out,
                            scratch.sample_scratch);
    for (std::size_t idx : scratch.sample_out) {
      out.push_back(entries_[idx]);
    }
    return;
  }
  if (const ScoreIndex* index = find_selection(policy)) {
    scratch.positions.clear();
    with_selection_key(policy, [&](auto key) {
      index->top_k(count, scratch.positions, scratch.heap, key);
    });
    for (ScoreIndex::Pos pos : scratch.positions) {
      out.push_back(entries_[pos]);
    }
    return;
  }
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    scored.emplace_back(
        selection_score(policy, entries_[i], rng, first_hand_only_), i);
  }
  // Equal scores tie-break by entry index: partial_sort is not stable, so
  // without the index the order of equal-score entries would depend on the
  // stdlib implementation (and could differ across platforms/versions).
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(count),
                    scored.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(entries_[scored[k].second]);
  }
}

}  // namespace guess
