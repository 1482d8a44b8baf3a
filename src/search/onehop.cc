#include "search/onehop.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace guess::search {

double OneHopStats::maintenance_msgs_per_peer_per_sec(
    double measure_seconds) const {
  if (measure_seconds <= 0.0) return 0.0;
  return static_cast<double>(membership_events) / measure_seconds;
}

OneHopBackend::OneHopBackend(const SimulationConfig& config,
                             sim::Simulator& simulator, Rng rng)
    : config_(config),
      loss_(config.transport().kind == TransportParams::Kind::kLossy
                ? config.transport().loss
                : 0.0),
      simulator_(simulator),
      rng_(std::move(rng)) {
  churn_ = std::make_unique<churn::ChurnManager>(
      simulator_,
      churn::LifetimeDistribution(config_.system().lifespan_multiplier),
      rng_.split(),
      [this](churn::PeerId position) { on_peer_death(position); });
}

OneHopBackend::~OneHopBackend() = default;

void OneHopBackend::bootstrap() {
  GUESS_CHECK_MSG(ring_.empty(), "bootstrap() called twice");
  for (std::size_t i = 0; i < config_.system().network_size; ++i) {
    spawn_peer(/*initial=*/true);
  }
  // Initial views are synchronized.
  view_ = ring_;
  // Open-loop runs silence the internal lookup clock; lookups arrive only
  // through start_query.
  if (!config_.open_loop()) schedule_next_lookup();
}

void OneHopBackend::spawn_peer(bool initial) {
  // 64-bit random ring positions: collisions are absent in practice, and
  // positions are never reused, so a stale view entry is unambiguous.
  Position position = 0;
  do {
    position = static_cast<Position>(rng_.uniform_int(
        0, std::numeric_limits<std::int64_t>::max()));
  } while (ring_.contains(position));
  std::uint64_t node = next_node_id_++;
  ring_.emplace(position, node);
  if (initial) {
    churn_->register_peer_scaled(position, std::max(1e-6, rng_.uniform()));
  } else {
    churn_->register_peer(position);
    if (measuring_) ++stats_.membership_events;
    // The join reaches everyone after the dissemination delay.
    simulator_.after(config_.backends().onehop.dissemination_delay,
                     [this, position, node]() {
                       view_.emplace(position, node);
                     });
  }
}

void OneHopBackend::on_peer_death(Position position) {
  // Constant population, like the GUESS simulations.
  remove_peer(position, /*respawn=*/true);
}

void OneHopBackend::remove_peer(Position position, bool respawn) {
  ring_.erase(position);
  if (measuring_) {
    ++deaths_;
    ++stats_.membership_events;
  }
  simulator_.after(config_.backends().onehop.dissemination_delay,
                   [this, position]() { view_.erase(position); });
  if (respawn) spawn_peer(/*initial=*/false);
}

void OneHopBackend::fault_mass_kill(double fraction) {
  GUESS_CHECK(fraction >= 0.0 && fraction <= 1.0);
  auto count = static_cast<std::size_t>(
      fraction * static_cast<double>(ring_.size()));
  // Keep at least two peers so the ring stays meaningful.
  if (ring_.size() < count + 2) {
    count = ring_.size() > 2 ? ring_.size() - 2 : 0;
  }
  std::vector<Position> positions;
  positions.reserve(ring_.size());
  for (const auto& [position, node] : ring_) {
    (void)node;
    positions.push_back(position);
  }
  std::vector<std::size_t> picks =
      rng_.sample_indices(positions.size(), count);
  for (std::size_t i : picks) {
    Position victim = positions[i];
    churn_->deschedule(victim);
    remove_peer(victim, /*respawn=*/false);
  }
}

void OneHopBackend::fault_mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(/*initial=*/false);
}

OneHopBackend::Position OneHopBackend::owner_of(
    const std::map<Position, std::uint64_t>& ring, Position key) {
  GUESS_CHECK(!ring.empty());
  auto it = ring.lower_bound(key);
  if (it == ring.end()) it = ring.begin();  // wrap around the ring
  return it->first;
}

void OneHopBackend::schedule_next_lookup() {
  // Poisson lookups across the population.
  double rate = config_.system().query_rate *
                static_cast<double>(config_.system().network_size);
  simulator_.after(rng_.exponential(rate), [this]() {
    lookup_random_key();
    schedule_next_lookup();
  });
}

bool OneHopBackend::lookup_random_key() {
  if (view_.empty() || ring_.empty()) return false;
  auto key = static_cast<Position>(
      rng_.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
  Position true_owner = owner_of(ring_, key);

  std::uint64_t timeouts = 0;
  Position believed = owner_of(view_, key);
  // Walk the believed successor list past departed peers — and, under loss,
  // past probes that never came back. Bounded by the view size (in practice
  // a handful of steps at realistic churn). The loss guard short-circuits,
  // so a loss-free run draws no randomness here.
  std::size_t safety = view_.size();
  while ((!ring_.contains(believed) ||
          (loss_ > 0.0 && rng_.bernoulli(loss_))) &&
         safety-- > 0) {
    ++timeouts;
    auto it = view_.upper_bound(believed);
    if (it == view_.end()) it = view_.begin();
    believed = it->first;
  }
  if (!ring_.contains(believed)) return false;  // pathological: view all stale

  bool direct = believed == true_owner;
  std::uint64_t probes = timeouts + 1 + (direct ? 0 : 1);
  if (!measuring_) return true;
  ++lookups_;
  if (direct && timeouts == 0) ++stats_.one_hop;
  if (!direct) ++stats_.corrective_hops;
  stats_.timeouts += timeouts;
  probes_ += probes;
  lookup_probes_.add(static_cast<double>(probes));
  return true;
}

void OneHopBackend::start_query(Rng& rng, sim::Time issued) {
  // Keys come from the backend's own generator, like the internal lookup
  // clock's.
  (void)rng;
  bool resolved = lookup_random_key();
  if (observer_ != nullptr) {
    // Lookups resolve synchronously (probe latency is a probe count here,
    // not simulated time): the query's latency is its controller queueing
    // delay.
    observer_->on_query_complete(simulator_.now() - issued, resolved);
  }
}

SearchResults OneHopBackend::collect() {
  std::uint64_t n = config_.system().network_size;
  SearchResults out;
  out.backend = name();
  out.network_size = n;
  // A lookup is a completed query; exact-match lookups always resolve to
  // the key's owner, so every completed lookup is satisfied.
  out.queries_completed = lookups_;
  out.queries_satisfied = lookups_;
  out.probes = probes_;
  // Timed-out probes (departed or lossy targets) never reply.
  out.query_messages = 2 * probes_ - stats_.timeouts;
  // [1]'s defining overhead: every membership event reaches every peer.
  out.maintenance_messages = stats_.membership_events * n;
  out.query_bytes =
      probes_ * (kWire.header + kWire.probe_payload) +
      (probes_ - stats_.timeouts) * (kWire.header + kWire.result_entry);
  out.maintenance_bytes =
      out.maintenance_messages * (kWire.header + kWire.membership_entry);
  out.deaths = deaths_;
  out.probe_samples = lookup_probes_;
  out.extra = stats_;
  return out;
}

std::unique_ptr<SearchBackend> make_onehop_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<OneHopBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
