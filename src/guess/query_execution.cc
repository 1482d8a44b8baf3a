#include "guess/query_execution.h"

#include <algorithm>

#include "common/check.h"

namespace guess {

void ProbeCounters::count(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kGood: ++good; break;
    case ProbeOutcome::kDead: ++dead; break;
    case ProbeOutcome::kRefused: ++refused; break;
  }
}

ProbeCounters& ProbeCounters::operator+=(const ProbeCounters& other) {
  good += other.good;
  dead += other.dead;
  refused += other.refused;
  return *this;
}

QueryExecution::QueryExecution(PeerId origin, content::FileId file,
                               std::uint32_t desired, Policy probe_policy,
                               sim::Time start, std::size_t parallel,
                               bool first_hand_only)
    : origin_(origin),
      file_(file),
      desired_(desired),
      probe_policy_(probe_policy),
      start_(start),
      issue_(start),
      first_hand_only_(first_hand_only),
      parallel_(parallel) {
  GUESS_CHECK(desired >= 1);
  GUESS_CHECK(parallel >= 1);
}

void QueryExecution::reset(PeerId origin, content::FileId file,
                           std::uint32_t desired, Policy probe_policy,
                           sim::Time start, std::size_t parallel,
                           bool first_hand_only) {
  GUESS_CHECK(desired >= 1);
  GUESS_CHECK(parallel >= 1);
  origin_ = origin;
  file_ = file;
  desired_ = desired;
  probe_policy_ = probe_policy;
  start_ = start;
  issue_ = start;
  first_hand_only_ = first_hand_only;
  heap_.clear();
  candidates_.clear();
  referrers_.clear();
  seen_.clear();
  results_ = 0;
  counters_ = ProbeCounters{};
  parallel_ = parallel;
  resultless_slots_ = 0;
  stalled_slots_ = 0;
  slot_results_baseline_ = 0;
  slot_probes_issued_ = 0;
  slot_outstanding_ = 0;
  slot_creditless_ = false;
  slot_issuing_ = false;
  token_ = 0;
}

void QueryExecution::note_slot(bool any_results, bool adaptive,
                               std::size_t trigger, std::size_t max) {
  if (any_results) {
    resultless_slots_ = 0;
    return;
  }
  ++resultless_slots_;
  if (adaptive && resultless_slots_ >= trigger) {
    // Double, capped at `max`, but never shrink below the starting width.
    parallel_ = std::max(parallel_, std::min(parallel_ * 2, max));
    resultless_slots_ = 0;
  }
}

bool QueryExecution::add_candidate(const CacheEntry& entry, PeerId source,
                                   Rng& rng) {
  if (entry.id == origin_) return false;
  if (!seen_.insert(static_cast<std::uint32_t>(entry.id))) return false;
  std::uint32_t referrer = kNoReferrer;
  if (source != kInvalidPeer) {
    // A Pong's entries arrive together, so one append serves them all.
    if (referrers_.empty() || referrers_.back() != source) {
      referrers_.push_back(source);
    }
    referrer = static_cast<std::uint32_t>(referrers_.size() - 1);
  }
  auto idx = static_cast<std::uint32_t>(candidates_.size());
  candidates_.push_back(Stored{entry.id, entry.num_res, referrer});
  heap_.push_back(Scored{
      selection_score(probe_policy_, entry, rng, first_hand_only_), idx});
  std::push_heap(heap_.begin(), heap_.end());
  return true;
}

std::optional<QueryExecution::Candidate> QueryExecution::next_candidate() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end());
  const Stored& stored = candidates_[heap_.back().idx];
  heap_.pop_back();
  return Candidate{stored.id,
                   stored.referrer == kNoReferrer ? kInvalidPeer
                                                  : referrers_[stored.referrer],
                   stored.num_res};
}

}  // namespace guess
