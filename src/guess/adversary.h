// The adversary zoo (DESIGN.md §11): every attacker in a run, behind one
// AdversaryBehavior interface and one membership index.
//
// §6.4's cache poisoners are born with the population (PercentBadPeers) and
// churn with it. They answer every Ping/Probe with poison chosen by
// SystemParams::bad_pong_behavior and lie about NumFiles:
//
//   Dead       — PongSize fabricated dead addresses (no collusion);
//   Bad        — PongSize fellow poisoners (collusion).
//
// Poisoners obey the `poison on|off` scenario toggle. The active attacks are
// deployed and retired by `at T attack <kind> frac=F for D` windows, ignore
// the toggle, and claim both NumFiles and NumRes:
//
//   eclipse    — colluders ping aggressively and answer every Ping/Probe
//                with a full-width pong naming fellow colluders under
//                top-of-distribution claims, displacing honest entries from
//                victims' link caches;
//   sybil      — a flash crowd of short-lived identities: each sybil
//                retires after `sybil_lifetime` and is replaced by a fresh
//                PeerId (the old id is tombstoned forever), filling victim
//                caches with soon-dead entries and churning the PeerTable's
//                id/generation machinery;
//   pong-flood — oversized pong payloads (`pong_flood_factor` × PongSize
//                fabricated dead addresses) to inflate victims' cache and
//                referral bookkeeping;
//   withhold   — slowloris probe stalling: accept Pings/QueryProbes and
//                never reply, burning the sender's timeout (and retries,
//                under the lossy transport) per exchange.
//
// The zoo is pure bookkeeping + payload generation and draws randomness only
// from the RNG the network passes in, so attack runs stay bitwise
// reproducible.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "faults/scenario.h"
#include "guess/cache_entry.h"
#include "guess/params.h"

namespace guess {

class AdversaryZoo;

/// One attack strategy. Stateless apart from back-references to the zoo (for
/// parameters and the fabricated pools) and to its own roster; per-member
/// state lives in the network (timers) and the zoo (membership).
class AdversaryBehavior {
 public:
  AdversaryBehavior(const AdversaryZoo& zoo, const std::vector<PeerId>& roster)
      : zoo_(zoo), roster_(roster) {}
  virtual ~AdversaryBehavior() = default;

  /// Multiplier on the honest PingInterval for cohort members; < 1 means
  /// the attacker pings faster than honest peers.
  virtual double ping_interval_factor() const { return 1.0; }

  /// True if the attacker swallows inbound exchanges entirely — the sender
  /// sees a timeout (and pays retries under the lossy transport).
  virtual bool withholds_replies() const { return false; }

  /// Identity lifetime: 0 = the member lives for the whole attack window;
  /// > 0 = it retires after this long and a fresh identity replaces it.
  virtual sim::Duration identity_lifetime() const { return 0.0; }

  /// Fill `out` with the attack pong this member answers a Ping/QueryProbe
  /// with. May exceed `pong_size` (pong-flood) or be empty (a lone colluder
  /// has nobody to advertise).
  virtual void make_pong_into(PeerId self, std::size_t pong_size,
                              sim::Time now, Rng& rng,
                              std::vector<CacheEntry>& out) const = 0;

  /// The entry this member introduces itself with. By default it claims
  /// both NumFiles and NumRes: the only advertising channel of a withholder
  /// (which builds no pongs), and the bait that pulls MR-ranked probes in.
  /// Never first-hand, so the first_hand_floor defense still holds.
  virtual CacheEntry introduction_entry(PeerId self, sim::Time now) const {
    return claim_entry(self, now);
  }

 protected:
  const AdversaryZoo& zoo() const { return zoo_; }
  /// Deployed members running this behavior, in swap-remove order.
  const std::vector<PeerId>& roster() const { return roster_; }

  /// An entry with the top-of-distribution claims (§6.4's lie, reused by
  /// every behavior so trusting policies rank attack entries first).
  CacheEntry claim_entry(PeerId id, sim::Time now) const;

 private:
  const AdversaryZoo& zoo_;
  const std::vector<PeerId>& roster_;
};

/// Every deployed attacker: one swap-remove roster per behavior (the four
/// AttackKinds plus §6.4's poisoners), one membership index over all of
/// them, the behavior instances, the poison toggle and the two fabricated
/// address pools (Dead poison, pong-flood).
class AdversaryZoo {
 public:
  /// `poison` picks the pongs of §6.4's poisoners (SystemParams::
  /// bad_pong_behavior).
  AdversaryZoo(MaliciousParams params, BadPongBehavior poison);
  ~AdversaryZoo();

  AdversaryZoo(const AdversaryZoo&) = delete;
  AdversaryZoo& operator=(const AdversaryZoo&) = delete;

  /// Fabricated dead addresses for Dead poison and for pong-flood payloads
  /// (allocated by the network from its id space so they can never collide
  /// with real peers). Separate pools, so either attack's fabricated ids do
  /// not depend on whether the other runs.
  void set_dead_pool(std::vector<PeerId> pool);
  const std::vector<PeerId>& dead_pool() const { return dead_pool_; }
  void set_flood_pool(std::vector<PeerId> pool);
  const std::vector<PeerId>& flood_pool() const { return flood_pool_; }

  const AdversaryBehavior& behavior(faults::AttackKind kind) const;

  /// Membership bookkeeping. An id belongs to at most one roster; add
  /// checks freshness, remove checks membership (GUESS_CHECK).
  void add(faults::AttackKind kind, PeerId id);
  void add_poisoner(PeerId id);
  void remove(PeerId id);
  bool contains(PeerId id) const { return index_.contains(id); }
  std::size_t size() const { return index_.size(); }

  /// §6.4 onset toggle (`poison on|off`): while off, poisoners answer with
  /// their real (empty) caches and honest introductions. Attack cohorts
  /// ignore it.
  void set_poisoning(bool active) { poisoning_active_ = active; }
  bool poisoning_active() const { return poisoning_active_; }

  /// The behavior `id` attacks with right now, or nullptr when it answers
  /// honestly: not an attacker, or a poisoner while poisoning is off.
  const AdversaryBehavior* behavior_of(PeerId id) const;

  /// True iff `id` is a deployed reply-withholding adversary.
  bool withholds(PeerId id) const;

  /// Deployed members of `kind`, in swap-remove order.
  const std::vector<PeerId>& roster(faults::AttackKind kind) const;
  /// Live poisoners, in swap-remove order.
  const std::vector<PeerId>& poisoners() const { return rosters_[kPoison]; }

  const MaliciousParams& params() const { return params_; }

 private:
  /// Roster slots: one per AttackKind, then the poisoners.
  static constexpr std::size_t kPoison = faults::kNumAttackKinds;
  static constexpr std::size_t kNumRosters = kPoison + 1;

  struct Membership {
    std::size_t roster;  ///< index into rosters_
    std::size_t pos;     ///< index into rosters_[roster]
  };

  void add_to(std::size_t roster, PeerId id);

  MaliciousParams params_;
  std::array<std::vector<PeerId>, kNumRosters> rosters_;
  std::array<std::unique_ptr<AdversaryBehavior>, kNumRosters> behaviors_;
  std::unordered_map<PeerId, Membership> index_;
  bool poisoning_active_ = true;
  std::vector<PeerId> dead_pool_;
  std::vector<PeerId> flood_pool_;
};

}  // namespace guess
