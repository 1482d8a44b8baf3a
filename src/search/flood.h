// Gnutella flooding — a live forwarding overlay with open bidirectional
// connections, churn with immediate neighbor repair, and TTL-flooded
// queries (§3 of the paper), as a SearchBackend.
//
// This is the forwarding-based counterpart to GUESS, sharing the same
// substrates (simulator, churn model, content model, bursty query stream)
// so the §3 comparison can be made quantitatively on identical workloads:
// messages per query, satisfaction, response time, load skew.
//
// Modeling notes (the §3 differences the paper calls out):
//  * connections are stateful: a dying peer's neighbors notice immediately
//    and repair by connecting to a random live peer — state maintenance is
//    cheap and local, unlike GUESS's ping-based cache upkeep;
//  * queries are amplified: every transmission costs a message, duplicates
//    included, and the originator cannot adapt the extent to popularity;
//  * a lossy transport drops transmissions i.i.d.: a lost transmission is
//    counted as sent but the receiver never processes or forwards it.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "churn/churn_manager.h"
#include "common/rng.h"
#include "common/stats.h"
#include "content/content_model.h"
#include "content/query_stream.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::search {

/// Flooding's per-backend extras (the extension-slot payload:
/// `results.extra_as<FloodStats>()`): what SearchResults does not carry.
struct FloodStats {
  SampleSet peer_loads;       ///< messages processed per peer, dead included
  std::uint64_t repairs = 0;  ///< connections re-established (measured)
};

std::unique_ptr<SearchBackend> make_flood_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);

/// The concrete backend, public for the focused tests
/// (tests/search/flood_test.cc inspects the overlay directly).
class FloodBackend final : public SearchBackend {
 public:
  FloodBackend(const SimulationConfig& config, sim::Simulator& simulator,
               Rng rng);
  ~FloodBackend() override;

  FloodBackend(const FloodBackend&) = delete;
  FloodBackend& operator=(const FloodBackend&) = delete;

  const char* name() const override { return "flood"; }
  /// Build the initial population and wire the overlay. Call once.
  void bootstrap() override;
  void begin_measurement() override;
  void start_query(Rng& rng, sim::Time issued) override;
  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }
  SearchResults collect() override;
  std::size_t live_peers() const override { return peers_.size(); }

  /// Kill a uniform fraction of live peers with no respawn, or join `count`
  /// fresh peers at once (DESIGN.md §9). Both draw from the backend's RNG.
  void fault_mass_kill(double fraction) override;
  void fault_mass_join(std::size_t count) override;

  // --- introspection (tests) ---
  std::size_t degree(std::uint64_t peer) const;
  std::size_t largest_component() const;
  double mean_degree() const;
  std::size_t max_degree_seen() const;

 private:
  struct PeerState;
  using PeerId = std::uint64_t;

  /// What one flood query produced.
  struct QueryOutcome {
    bool satisfied = false;
    /// Modeled service time: first-result hop depth × hop_delay when
    /// satisfied, full TTL depth × hop_delay when not (the flood ran to
    /// extinction either way; an unsatisfied querier waited out the deepest
    /// hop).
    double response_time = 0.0;
  };

  PeerId spawn_peer(bool initial);
  void on_peer_death(PeerId id);
  void remove_peer(PeerId id, bool respawn);
  void connect_to_random(PeerState& peer, std::size_t wanted);
  bool add_link(PeerId a, PeerId b);
  void remove_link(PeerId a, PeerId b);
  void schedule_next_burst(PeerState& peer);
  QueryOutcome run_query(PeerId origin, content::FileId file);
  std::uint64_t random_alive(PeerId exclude);

  SimulationConfig config_;
  const FloodBackendParams& tuning_;
  /// I.i.d. per-transmission loss: the lossy transport's, else 0 (a
  /// loss-free run draws no randomness for it).
  double loss_;
  sim::Simulator& simulator_;
  Rng rng_;
  content::ContentModel content_;
  content::QueryStream query_stream_;
  std::unique_ptr<churn::ChurnManager> churn_;
  QueryObserver* observer_ = nullptr;

  PeerId next_id_ = 0;
  std::unordered_map<PeerId, std::unique_ptr<PeerState>> peers_;
  std::vector<PeerId> alive_ids_;
  std::unordered_map<PeerId, std::size_t> alive_index_;

  // Measurement-window tallies.
  bool measuring_ = false;
  std::uint64_t queries_completed_ = 0;
  std::uint64_t queries_satisfied_ = 0;
  std::uint64_t messages_ = 0;  ///< transmissions incl. duplicates
  std::uint64_t peers_reached_ = 0;
  std::uint64_t deaths_ = 0;
  std::uint64_t repairs_ = 0;
  RunningStat response_time_;
  SampleSet query_reach_;
  std::unordered_map<PeerId, std::uint64_t> dead_peer_loads_;
};

}  // namespace guess::search
