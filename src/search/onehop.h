// One-hop DHT lookups — the structured-overlay counterpart of
// non-forwarding search (the paper's reference [1], Gupta/Liskov/Rodrigues),
// as a SearchBackend.
//
// The paper positions GUESS against one-hop DHTs in §1: both avoid
// forwarding, but the DHT buys its single-hop lookups with full membership
// state at every peer, maintained by disseminating every join/leave to
// everyone — and supports only search-by-identifier. This backend makes the
// contrast measurable on the same churn substrate.
//
// Model: peers sit on a key ring; the peer clockwise-closest to a key owns
// it. Every peer keeps a full routing table whose content lags reality by
// the dissemination delay D (the mean time for a membership event to reach
// all peers). A lookup probes the *believed* owner directly:
//   * believed owner already departed, or the probe was lost → timeout,
//     retry with the next believed successor (each retry is a wasted probe,
//     like GUESS's dead probes);
//   * believed owner is alive but a newer join actually owns the key → one
//     corrective forward hop (the "two-hop" case of [1]).
// Maintenance traffic is the defining cost: every membership event must
// reach all N peers, so each peer processes ~2·N/mean_lifetime messages
// per second regardless of whether it ever looks anything up.
//
// Lookups are Poisson at query_rate × network_size across the population,
// for uniformly random keys drawn from the backend's own generator (the
// start_query rng is not consumed). Exact-match lookups always resolve to
// the key's owner, so every completed lookup counts as satisfied.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "churn/churn_manager.h"
#include "common/rng.h"
#include "common/stats.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::search {

/// The one-hop DHT's per-backend extras (the extension-slot payload:
/// `results.extra_as<OneHopStats>()`): what SearchResults does not carry.
/// Counters cover the measurement window only.
struct OneHopStats {
  std::uint64_t one_hop = 0;          ///< direct hit on the true owner
  std::uint64_t corrective_hops = 0;  ///< believed owner alive, superseded
  std::uint64_t timeouts = 0;  ///< probes to departed or lost believed owners
  std::uint64_t membership_events = 0;  ///< joins + leaves

  /// Membership-maintenance messages per peer per second: every event is
  /// disseminated to every peer ([1]'s defining overhead), so per peer that
  /// is simply the event rate.
  double maintenance_msgs_per_peer_per_sec(double measure_seconds) const;
};

std::unique_ptr<SearchBackend> make_onehop_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);

/// The concrete backend, public for the focused tests
/// (tests/search/onehop_test.cc drives lookups by hand).
class OneHopBackend final : public SearchBackend {
 public:
  OneHopBackend(const SimulationConfig& config, sim::Simulator& simulator,
                Rng rng);
  ~OneHopBackend() override;

  OneHopBackend(const OneHopBackend&) = delete;
  OneHopBackend& operator=(const OneHopBackend&) = delete;

  const char* name() const override { return "onehop"; }
  /// Create the initial population (views start synchronized). Call once.
  void bootstrap() override;
  void begin_measurement() override { measuring_ = true; }
  void start_query(Rng& rng, sim::Time issued) override;
  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }
  SearchResults collect() override;
  std::size_t live_peers() const override { return ring_.size(); }

  /// Kill a uniform fraction of live peers with no respawn, or join `count`
  /// fresh peers at once (DESIGN.md §9). Deaths and joins disseminate
  /// through the lagged view like churn-driven ones.
  void fault_mass_kill(double fraction) override;
  void fault_mass_join(std::size_t count) override;

  /// Perform one lookup for a uniformly random key. @returns true if the
  /// lookup resolved to a live owner (false only in the pathological
  /// every-view-entry-stale case).
  bool lookup_random_key();

  // --- introspection (tests) ---
  std::size_t view_size() const { return view_.size(); }

 private:
  using Position = std::uint64_t;

  void spawn_peer(bool initial);
  void on_peer_death(Position position);
  void remove_peer(Position position, bool respawn);
  void schedule_next_lookup();
  /// Owner of `key` in a ring map (clockwise successor, wrapping).
  static Position owner_of(const std::map<Position, std::uint64_t>& ring,
                           Position key);

  SimulationConfig config_;
  /// I.i.d. per-probe loss: the lossy transport's, else 0 (a loss-free run
  /// draws no randomness for it).
  double loss_;
  sim::Simulator& simulator_;
  Rng rng_;
  std::unique_ptr<churn::ChurnManager> churn_;
  QueryObserver* observer_ = nullptr;

  std::uint64_t next_node_id_ = 0;
  /// Reality: position -> node incarnation id.
  std::map<Position, std::uint64_t> ring_;
  /// Everyone's (uniformly lagged) view of the ring.
  std::map<Position, std::uint64_t> view_;

  // Measurement-window tallies.
  bool measuring_ = false;
  OneHopStats stats_;
  std::uint64_t lookups_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t deaths_ = 0;
  SampleSet lookup_probes_;  ///< timeouts + final probe (+ forward)
};

}  // namespace guess::search
