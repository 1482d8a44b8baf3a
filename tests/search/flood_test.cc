// Flooding backend (§3): overlay wiring and repair under churn, flood
// amplification, hop-bounded response times, and the degree cap. Whole runs
// go through run_search; the overlay's shape is read off the registry's
// FloodBackend between simulator steps.
#include "search/flood.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "sim/simulator.h"

namespace guess::search {
namespace {

SimulationConfig small_config(std::size_t n = 200) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 500;
  system.content.query_universe = 625;
  return SimulationConfig().system(system).backend(SearchBackendId::kFlood);
}

SimulationConfig with_lifespan(SimulationConfig config, double multiplier) {
  SystemParams system = config.system();
  system.lifespan_multiplier = multiplier;
  return config.system(system);
}

/// Measure from t=0 for `seconds` (seed 7).
SearchResults run_measured(SimulationConfig config, double seconds) {
  return run_search(config.seed(7).warmup(0.0).measure(seconds));
}

/// A bootstrapped backend from the registry, for inspection between
/// simulator steps.
struct Fixture {
  explicit Fixture(const SimulationConfig& config = small_config())
      : owner(make_backend(config, simulator, Rng(7))),
        backend(dynamic_cast<FloodBackend&>(*owner)) {
    backend.bootstrap();
  }
  sim::Simulator simulator;
  std::unique_ptr<SearchBackend> owner;
  FloodBackend& backend;
};

TEST(DynamicOverlay, InitializeWiresConnectedOverlay) {
  Fixture f;
  EXPECT_EQ(f.backend.live_peers(), 200u);
  EXPECT_EQ(f.backend.largest_component(), 200u);
  // Each peer initiates target_degree links and receives about as many.
  EXPECT_GT(f.backend.mean_degree(), 4.0);
  EXPECT_LE(f.backend.max_degree_seen(), 12u);
}

TEST(DynamicOverlay, PopulationConstantAndConnectedThroughChurn) {
  Fixture f(with_lifespan(small_config(), 0.05));  // aggressive churn
  f.backend.begin_measurement();
  f.simulator.run_until(1800.0);
  SearchResults results = f.backend.collect();
  EXPECT_GT(results.deaths, 50u);
  EXPECT_EQ(f.backend.live_peers(), 200u);
  // Immediate repair keeps the overlay whole despite heavy churn (§3.2).
  EXPECT_GT(f.backend.largest_component(), 190u);
  EXPECT_GT(results.extra_as<FloodStats>()->repairs, 0u);
  EXPECT_EQ(results.maintenance_messages,
            2 * results.extra_as<FloodStats>()->repairs);
}

TEST(DynamicOverlay, QueriesFlowAndAmplify) {
  SearchResults results = run_measured(small_config(), 1800.0);
  EXPECT_GT(results.queries_completed, 100u);
  // Fixed-extent flooding: every query pays the full flood regardless of
  // popularity, and messages exceed peers reached (duplicates).
  EXPECT_GT(results.query_messages_per_query(), results.probes_per_query());
  EXPECT_GT(results.probes_per_query(), 50.0);
  EXPECT_LT(results.unsatisfied_rate(), 0.5);
}

TEST(DynamicOverlay, ResponseTimeIsHopBounded) {
  SearchResults results = run_measured(small_config(), 1200.0);
  ASSERT_GT(results.response_time.count(), 0u);
  FloodBackendParams tuning;
  EXPECT_LE(results.response_time.max(),
            static_cast<double>(tuning.ttl) * tuning.hop_delay + 1e-9);
}

TEST(DynamicOverlay, SmallTtlReachesFewerPeers) {
  auto run_reach = [](std::size_t ttl) {
    FloodBackendParams tuning;
    tuning.ttl = ttl;
    return run_measured(small_config().flood(tuning), 900.0);
  };
  SearchResults narrow = run_reach(1);
  SearchResults wide = run_reach(4);
  EXPECT_LT(narrow.probes_per_query(), wide.probes_per_query());
  EXPECT_GE(narrow.unsatisfied_rate(), wide.unsatisfied_rate());
}

TEST(DynamicOverlay, LoadsCoverPopulation) {
  SearchResults results = run_measured(small_config(), 900.0);
  const auto* stats = results.extra_as<FloodStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->peer_loads.size(), 200u);
  EXPECT_GT(stats->peer_loads.mean(), 0.0);
}

TEST(DynamicOverlay, DegreeCapRespectedUnderChurn) {
  SimulationConfig config = with_lifespan(small_config(), 0.05);
  Fixture f(config);
  f.simulator.run_until(1200.0);
  EXPECT_LE(f.backend.max_degree_seen(), config.backends().flood.max_degree);
}

TEST(DynamicOverlay, ParameterValidation) {
  // network_size <= target_degree + 1: the overlay cannot be wired.
  EXPECT_THROW(small_config(5).validate(), CheckError);
  EXPECT_NO_THROW(small_config(6).validate());
  FloodBackendParams tuning;
  tuning.max_degree = 2;  // < target_degree
  EXPECT_THROW(small_config().flood(tuning).validate(), CheckError);
  EXPECT_THROW(run_search(small_config(4)), CheckError);
}

TEST(DynamicOverlay, InitializeTwiceThrows) {
  Fixture f;
  EXPECT_THROW(f.backend.bootstrap(), CheckError);
}

}  // namespace
}  // namespace guess::search
