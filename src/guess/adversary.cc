#include "guess/adversary.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace guess {

namespace {

std::size_t kind_slot(faults::AttackKind kind) {
  auto slot = static_cast<std::size_t>(kind);
  GUESS_CHECK(slot < faults::kNumAttackKinds);
  return slot;
}

/// Colluding-pong shape (eclipse, sybil and Bad poison): up to `pong_size`
/// entries naming fellow members of `roster`, never `self`. A lone member
/// has nobody to advertise and answers with an empty pong (no RNG draws).
void colluding_pong(const std::vector<PeerId>& roster, PeerId self,
                    std::size_t pong_size, sim::Time now, Rng& rng,
                    std::vector<CacheEntry>& out,
                    const MaliciousParams& params) {
  out.clear();
  if (roster.size() <= 1) return;
  if (out.capacity() < pong_size) out.reserve(pong_size);
  for (std::size_t i = 0; i < pong_size; ++i) {
    PeerId id = self;
    // Retry until we name someone else; the roster is > 1 so this
    // terminates quickly.
    while (id == self) id = roster[rng.index(roster.size())];
    out.push_back(CacheEntry{id, now, params.claimed_num_files,
                             params.claimed_num_res});
  }
}

/// Fabricated-pong shape (pong-flood and Dead poison): `count` entries drawn
/// uniformly from a pool of fabricated dead addresses. An empty pool yields
/// an empty pong (no RNG draws).
void fabricated_pong(const std::vector<PeerId>& pool, std::size_t count,
                     sim::Time now, Rng& rng, std::vector<CacheEntry>& out,
                     const MaliciousParams& params) {
  out.clear();
  if (pool.empty()) return;
  if (out.capacity() < count) out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(CacheEntry{pool[rng.index(pool.size())], now,
                             params.claimed_num_files,
                             params.claimed_num_res});
  }
}

/// §6.4 cache poisoning (Dead or Bad pongs). Poisoners lie about their
/// library in introductions but leave NumRes at the honest zero.
class PoisonBehavior final : public AdversaryBehavior {
 public:
  PoisonBehavior(const AdversaryZoo& zoo, const std::vector<PeerId>& roster,
                 BadPongBehavior pongs)
      : AdversaryBehavior(zoo, roster), pongs_(pongs) {}
  void make_pong_into(PeerId self, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    if (pongs_ == BadPongBehavior::kDead) {
      fabricated_pong(zoo().dead_pool(), pong_size, now, rng, out,
                      zoo().params());
    } else {
      colluding_pong(roster(), self, pong_size, now, rng, out,
                     zoo().params());
    }
  }
  CacheEntry introduction_entry(PeerId self, sim::Time now) const override {
    return CacheEntry{self, now, zoo().params().claimed_num_files, 0};
  }

 private:
  BadPongBehavior pongs_;
};

class EclipseBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  double ping_interval_factor() const override {
    return 1.0 / zoo().params().adversary.eclipse_ping_boost;
  }
  void make_pong_into(PeerId self, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    colluding_pong(roster(), self, pong_size, now, rng, out, zoo().params());
  }
};

class SybilBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  sim::Duration identity_lifetime() const override {
    return zoo().params().adversary.sybil_lifetime;
  }
  void make_pong_into(PeerId self, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    colluding_pong(roster(), self, pong_size, now, rng, out, zoo().params());
  }
};

class PongFloodBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  // Amplification needs contact surface: the flooder pings as aggressively
  // as an eclipse colluder so introductions spread its address quickly.
  double ping_interval_factor() const override {
    return 1.0 / zoo().params().adversary.eclipse_ping_boost;
  }
  void make_pong_into(PeerId /*self*/, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    auto flood = static_cast<std::size_t>(
        zoo().params().adversary.pong_flood_factor *
        static_cast<double>(pong_size));
    fabricated_pong(zoo().flood_pool(), std::max(flood, pong_size), now, rng,
                    out, zoo().params());
  }
};

class WithholdBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  bool withholds_replies() const override { return true; }
  void make_pong_into(PeerId /*self*/, std::size_t /*pong_size*/,
                      sim::Time /*now*/, Rng& /*rng*/,
                      std::vector<CacheEntry>& out) const override {
    // Unreachable in a run (the transport swallows the exchange before a
    // pong is built), but keep the contract total.
    out.clear();
  }
};

}  // namespace

CacheEntry AdversaryBehavior::claim_entry(PeerId id, sim::Time now) const {
  return CacheEntry{id, now, zoo_.params().claimed_num_files,
                    zoo_.params().claimed_num_res};
}

AdversaryZoo::AdversaryZoo(MaliciousParams params, BadPongBehavior poison)
    : params_(params) {
  behaviors_[kind_slot(faults::AttackKind::kEclipse)] =
      std::make_unique<EclipseBehavior>(
          *this, rosters_[kind_slot(faults::AttackKind::kEclipse)]);
  behaviors_[kind_slot(faults::AttackKind::kSybil)] =
      std::make_unique<SybilBehavior>(
          *this, rosters_[kind_slot(faults::AttackKind::kSybil)]);
  behaviors_[kind_slot(faults::AttackKind::kPongFlood)] =
      std::make_unique<PongFloodBehavior>(
          *this, rosters_[kind_slot(faults::AttackKind::kPongFlood)]);
  behaviors_[kind_slot(faults::AttackKind::kWithhold)] =
      std::make_unique<WithholdBehavior>(
          *this, rosters_[kind_slot(faults::AttackKind::kWithhold)]);
  behaviors_[kPoison] =
      std::make_unique<PoisonBehavior>(*this, rosters_[kPoison], poison);
}

AdversaryZoo::~AdversaryZoo() = default;

void AdversaryZoo::set_dead_pool(std::vector<PeerId> pool) {
  dead_pool_ = std::move(pool);
}

void AdversaryZoo::set_flood_pool(std::vector<PeerId> pool) {
  flood_pool_ = std::move(pool);
}

const AdversaryBehavior& AdversaryZoo::behavior(
    faults::AttackKind kind) const {
  return *behaviors_[kind_slot(kind)];
}

void AdversaryZoo::add_to(std::size_t roster, PeerId id) {
  GUESS_CHECK(!index_.contains(id));
  index_.emplace(id, Membership{roster, rosters_[roster].size()});
  rosters_[roster].push_back(id);
}

void AdversaryZoo::add(faults::AttackKind kind, PeerId id) {
  add_to(kind_slot(kind), id);
}

void AdversaryZoo::add_poisoner(PeerId id) { add_to(kPoison, id); }

void AdversaryZoo::remove(PeerId id) {
  auto it = index_.find(id);
  GUESS_CHECK(it != index_.end());
  Membership membership = it->second;
  index_.erase(it);
  std::vector<PeerId>& roster = rosters_[membership.roster];
  if (membership.pos != roster.size() - 1) {
    roster[membership.pos] = roster.back();
    index_[roster[membership.pos]].pos = membership.pos;
  }
  roster.pop_back();
}

const AdversaryBehavior* AdversaryZoo::behavior_of(PeerId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  if (it->second.roster == kPoison && !poisoning_active_) return nullptr;
  return behaviors_[it->second.roster].get();
}

bool AdversaryZoo::withholds(PeerId id) const {
  const AdversaryBehavior* behavior = behavior_of(id);
  return behavior != nullptr && behavior->withholds_replies();
}

const std::vector<PeerId>& AdversaryZoo::roster(
    faults::AttackKind kind) const {
  return rosters_[kind_slot(kind)];
}

}  // namespace guess
