#include "search/flood.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace guess::search {

struct FloodBackend::PeerState {
  PeerId id = 0;
  content::Library library;
  std::vector<PeerId> neighbors;
  std::uint64_t messages_processed = 0;
  sim::EventHandle burst_timer;

  bool connected_to(PeerId other) const {
    return std::find(neighbors.begin(), neighbors.end(), other) !=
           neighbors.end();
  }
};

FloodBackend::FloodBackend(const SimulationConfig& config,
                           sim::Simulator& simulator, Rng rng)
    : config_(config),
      tuning_(config_.backends().flood),
      loss_(config.transport().kind == TransportParams::Kind::kLossy
                ? config.transport().loss
                : 0.0),
      simulator_(simulator),
      rng_(std::move(rng)),
      content_(config.system().content),
      query_stream_(content::BurstParams{config.system().query_rate, 1, 5}) {
  churn_ = std::make_unique<churn::ChurnManager>(
      simulator_,
      churn::LifetimeDistribution(config_.system().lifespan_multiplier),
      rng_.split(), [this](PeerId id) { on_peer_death(id); });
}

FloodBackend::~FloodBackend() = default;

void FloodBackend::bootstrap() {
  GUESS_CHECK_MSG(peers_.empty(), "bootstrap() called twice");
  for (std::size_t i = 0; i < config_.system().network_size; ++i) {
    spawn_peer(/*initial=*/true);
  }
  // Wire the initial overlay after all peers exist.
  for (PeerId id : alive_ids_) {
    PeerState& peer = *peers_.at(id);
    if (peer.neighbors.size() < tuning_.target_degree) {
      connect_to_random(peer, tuning_.target_degree - peer.neighbors.size());
    }
  }
}

FloodBackend::PeerId FloodBackend::spawn_peer(bool initial) {
  PeerId id = next_id_++;
  auto peer = std::make_unique<PeerState>();
  peer->id = id;
  peer->library = content_.sample_peer_library(rng_);
  PeerState& ref = *peer;
  peers_.emplace(id, std::move(peer));
  alive_index_.emplace(id, alive_ids_.size());
  alive_ids_.push_back(id);
  if (initial) {
    churn_->register_peer_scaled(id, std::max(1e-6, rng_.uniform()));
  } else {
    churn_->register_peer(id);
    // A joining peer opens its connections right away (§3.2: joining is
    // simple — only the new neighbors update state).
    connect_to_random(ref, tuning_.target_degree);
  }
  schedule_next_burst(ref);
  return id;
}

void FloodBackend::on_peer_death(PeerId id) {
  remove_peer(id, /*respawn=*/true);
}

void FloodBackend::remove_peer(PeerId id, bool respawn) {
  PeerState* peer = peers_.at(id).get();
  peer->burst_timer.cancel();
  dead_peer_loads_.emplace(id, peer->messages_processed);
  // Neighbors see the connection drop and repair immediately (§3.2).
  std::vector<PeerId> neighbors = peer->neighbors;
  for (PeerId other : neighbors) remove_link(id, other);

  std::size_t pos = alive_index_.at(id);
  alive_index_.erase(id);
  if (pos != alive_ids_.size() - 1) {
    alive_ids_[pos] = alive_ids_.back();
    alive_index_[alive_ids_[pos]] = pos;
  }
  alive_ids_.pop_back();
  peers_.erase(id);
  if (measuring_) ++deaths_;

  for (PeerId other : neighbors) {
    auto it = peers_.find(other);
    if (it == peers_.end()) continue;
    if (it->second->neighbors.size() < tuning_.target_degree) {
      connect_to_random(*it->second, 1);
      if (measuring_) ++repairs_;
    }
  }
  if (respawn) spawn_peer(/*initial=*/false);
}

void FloodBackend::fault_mass_kill(double fraction) {
  GUESS_CHECK(fraction >= 0.0 && fraction <= 1.0);
  auto count =
      static_cast<std::size_t>(fraction *
                               static_cast<double>(alive_ids_.size()));
  // Keep at least two peers so repair's random-neighbor draws terminate.
  if (alive_ids_.size() < count + 2) {
    count = alive_ids_.size() > 2 ? alive_ids_.size() - 2 : 0;
  }
  std::vector<std::size_t> picks =
      rng_.sample_indices(alive_ids_.size(), count);
  std::vector<PeerId> victims;
  victims.reserve(picks.size());
  for (std::size_t i : picks) victims.push_back(alive_ids_[i]);
  for (PeerId id : victims) {
    churn_->deschedule(id);
    remove_peer(id, /*respawn=*/false);
  }
}

void FloodBackend::fault_mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(/*initial=*/false);
}

std::uint64_t FloodBackend::random_alive(PeerId exclude) {
  for (;;) {
    PeerId id = alive_ids_[rng_.index(alive_ids_.size())];
    if (id != exclude) return id;
  }
}

bool FloodBackend::add_link(PeerId a, PeerId b) {
  if (a == b) return false;
  PeerState& pa = *peers_.at(a);
  PeerState& pb = *peers_.at(b);
  if (pa.connected_to(b)) return false;
  if (pa.neighbors.size() >= tuning_.max_degree ||
      pb.neighbors.size() >= tuning_.max_degree) {
    return false;
  }
  pa.neighbors.push_back(b);
  pb.neighbors.push_back(a);
  return true;
}

void FloodBackend::remove_link(PeerId a, PeerId b) {
  auto drop = [](PeerState& peer, PeerId other) {
    auto it = std::find(peer.neighbors.begin(), peer.neighbors.end(), other);
    if (it != peer.neighbors.end()) {
      *it = peer.neighbors.back();
      peer.neighbors.pop_back();
    }
  };
  auto ita = peers_.find(a);
  auto itb = peers_.find(b);
  if (ita != peers_.end()) drop(*ita->second, b);
  if (itb != peers_.end()) drop(*itb->second, a);
}

void FloodBackend::connect_to_random(PeerState& peer, std::size_t wanted) {
  std::size_t attempts = 0;
  std::size_t added = 0;
  // Bounded retries: the overlay may be degree-saturated.
  while (added < wanted && attempts < wanted * 20 &&
         alive_ids_.size() > 1) {
    ++attempts;
    if (add_link(peer.id, random_alive(peer.id))) ++added;
  }
}

void FloodBackend::schedule_next_burst(PeerState& peer) {
  // Open-loop runs silence the per-peer burst clock; queries arrive only
  // through start_query.
  if (config_.open_loop()) return;
  PeerId id = peer.id;
  peer.burst_timer =
      simulator_.after(query_stream_.next_burst_gap(rng_), [this, id]() {
        auto it = peers_.find(id);
        if (it == peers_.end()) return;
        std::size_t burst = query_stream_.next_burst_size(rng_);
        for (std::size_t i = 0; i < burst; ++i) {
          run_query(id, content_.draw_query(rng_));
        }
        schedule_next_burst(*it->second);
      });
}

FloodBackend::QueryOutcome FloodBackend::run_query(PeerId origin,
                                                   content::FileId file) {
  // Synchronous BFS flood: messages are counted per transmission,
  // duplicates included (the §3 amplification); response time is the hop
  // depth of the first result times the per-hop delay.
  std::uint64_t messages = 0;
  std::uint64_t reached = 1;
  std::uint32_t results = 0;
  std::size_t first_result_depth = 0;

  std::unordered_set<PeerId> seen{origin};
  std::deque<std::pair<PeerId, std::size_t>> frontier{{origin, 0}};
  PeerState& source = *peers_.at(origin);
  source.messages_processed += 1;
  if (file != content::kNonexistentFile && source.library.contains(file)) {
    ++results;
  }
  while (!frontier.empty()) {
    auto [node, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= tuning_.ttl) continue;
    for (PeerId next : peers_.at(node)->neighbors) {
      ++messages;
      // Lossy transmission: counted as sent, never received. Guarded so a
      // loss-free run draws no randomness here.
      if (loss_ > 0.0 && rng_.bernoulli(loss_)) continue;
      auto it = peers_.find(next);
      GUESS_CHECK_MSG(it != peers_.end(), "edge to dead peer");
      it->second->messages_processed += 1;
      if (!seen.insert(next).second) continue;
      ++reached;
      if (file != content::kNonexistentFile &&
          it->second->library.contains(file)) {
        if (results == 0) first_result_depth = depth + 1;
        ++results;
      }
      frontier.emplace_back(next, depth + 1);
    }
  }

  QueryOutcome outcome;
  outcome.satisfied = results >= config_.system().num_desired_results;
  // first_result_depth is 0 when the origin's own library matched; an
  // unsatisfied query waited out the full TTL depth.
  outcome.response_time =
      static_cast<double>(outcome.satisfied ? first_result_depth
                                            : tuning_.ttl) *
      tuning_.hop_delay;

  if (!measuring_) return outcome;
  ++queries_completed_;
  messages_ += messages;
  peers_reached_ += reached;
  query_reach_.add(static_cast<double>(reached));
  if (outcome.satisfied) {
    ++queries_satisfied_;
    response_time_.add(outcome.response_time);
  }
  return outcome;
}

void FloodBackend::begin_measurement() {
  measuring_ = true;
  dead_peer_loads_.clear();
}

void FloodBackend::start_query(Rng& rng, sim::Time issued) {
  GUESS_CHECK(!alive_ids_.empty());
  PeerId origin = alive_ids_[rng.index(alive_ids_.size())];
  QueryOutcome outcome = run_query(origin, content_.draw_query(rng));
  if (observer_ != nullptr) {
    // The flood runs synchronously; the query's latency is its controller
    // queueing delay plus the modeled hop time.
    observer_->on_query_complete(
        (simulator_.now() - issued) + outcome.response_time,
        outcome.satisfied);
  }
}

SearchResults FloodBackend::collect() {
  FloodStats stats;
  stats.repairs = repairs_;
  for (const auto& [id, load] : dead_peer_loads_) {
    (void)id;
    stats.peer_loads.add(static_cast<double>(load));
  }
  for (const auto& [id, peer] : peers_) {
    (void)id;
    stats.peer_loads.add(static_cast<double>(peer->messages_processed));
  }

  SearchResults out;
  out.backend = name();
  out.network_size = peers_.size();
  out.queries_completed = queries_completed_;
  out.queries_satisfied = queries_satisfied_;
  out.probes = peers_reached_;
  // Every forward transmission, duplicates included (§3 amplification).
  out.query_messages = messages_;
  out.maintenance_messages = 2 * repairs_;  // connect handshakes
  out.query_bytes = messages_ * (kWire.header + kWire.probe_payload);
  out.maintenance_bytes = out.maintenance_messages * kWire.header;
  out.deaths = deaths_;
  out.response_time = response_time_;
  out.probe_samples = query_reach_;
  out.extra = std::move(stats);
  return out;
}

std::size_t FloodBackend::degree(std::uint64_t peer) const {
  auto it = peers_.find(peer);
  GUESS_CHECK(it != peers_.end());
  return it->second->neighbors.size();
}

double FloodBackend::mean_degree() const {
  if (peers_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [id, peer] : peers_) {
    (void)id;
    total += static_cast<double>(peer->neighbors.size());
  }
  return total / static_cast<double>(peers_.size());
}

std::size_t FloodBackend::max_degree_seen() const {
  std::size_t best = 0;
  for (const auto& [id, peer] : peers_) {
    (void)id;
    best = std::max(best, peer->neighbors.size());
  }
  return best;
}

std::size_t FloodBackend::largest_component() const {
  if (alive_ids_.empty()) return 0;
  std::unordered_set<PeerId> visited;
  std::size_t best = 0;
  for (PeerId start : alive_ids_) {
    if (visited.contains(start)) continue;
    std::size_t count = 0;
    std::vector<PeerId> stack{start};
    visited.insert(start);
    while (!stack.empty()) {
      PeerId node = stack.back();
      stack.pop_back();
      ++count;
      for (PeerId next : peers_.at(node)->neighbors) {
        if (visited.insert(next).second) stack.push_back(next);
      }
    }
    best = std::max(best, count);
  }
  return best;
}

std::unique_ptr<SearchBackend> make_flood_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<FloodBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
