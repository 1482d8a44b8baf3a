// One-hop DHT backend (§1, reference [1]): synchronized views, timeouts and
// corrective hops under churn, and maintenance that scales with churn.
// Whole runs go through run_search; lookups and views are driven on the
// registry's OneHopBackend by hand.
#include "search/onehop.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "sim/simulator.h"

namespace guess::search {
namespace {

SimulationConfig small_config(double lifespan_multiplier = 1.0,
                              double dissemination_delay = 30.0) {
  SystemParams system;
  system.network_size = 200;
  system.lifespan_multiplier = lifespan_multiplier;
  OneHopBackendParams tuning;
  tuning.dissemination_delay = dissemination_delay;
  return SimulationConfig()
      .system(system)
      .backend(SearchBackendId::kOneHop)
      .onehop(tuning);
}

/// Measure from t=0 for `seconds` (seed 7).
SearchResults run_measured(SimulationConfig config, double seconds) {
  return run_search(config.seed(7).warmup(0.0).measure(seconds));
}

const OneHopStats& stats_of(const SearchResults& results) {
  const auto* stats = results.extra_as<OneHopStats>();
  EXPECT_NE(stats, nullptr);
  static const OneHopStats empty;
  return stats != nullptr ? *stats : empty;
}

double one_hop_fraction(const SearchResults& results) {
  return results.queries_completed == 0
             ? 0.0
             : static_cast<double>(stats_of(results).one_hop) /
                   static_cast<double>(results.queries_completed);
}

/// A bootstrapped backend from the registry, for inspection between
/// simulator steps.
struct Fixture {
  explicit Fixture(const SimulationConfig& config = small_config())
      : owner(make_backend(config, simulator, Rng(7))),
        backend(dynamic_cast<OneHopBackend&>(*owner)) {
    backend.bootstrap();
  }
  sim::Simulator simulator;
  std::unique_ptr<SearchBackend> owner;
  OneHopBackend& backend;
};

TEST(OneHopDht, InitializeSynchronizesViews) {
  Fixture f;
  EXPECT_EQ(f.backend.live_peers(), 200u);
  EXPECT_EQ(f.backend.view_size(), 200u);
}

TEST(OneHopDht, NoChurnMeansAllLookupsAreOneHop) {
  // lifespan x10000: effectively no churn.
  SearchResults results = run_measured(small_config(10000.0), 3600.0);
  ASSERT_GT(results.queries_completed, 100u);
  EXPECT_EQ(stats_of(results).one_hop, results.queries_completed);
  EXPECT_EQ(stats_of(results).timeouts, 0u);
  EXPECT_EQ(stats_of(results).corrective_hops, 0u);
  EXPECT_DOUBLE_EQ(results.probes_per_query(), 1.0);
}

TEST(OneHopDht, ChurnCausesTimeoutsAndCorrectiveHops) {
  // Heavy churn, very stale views.
  SearchResults results = run_measured(small_config(0.02, 120.0), 3600.0);
  ASSERT_GT(results.queries_completed, 100u);
  const OneHopStats& stats = stats_of(results);
  EXPECT_GT(stats.timeouts + stats.corrective_hops, 0u);
  EXPECT_LT(one_hop_fraction(results), 1.0);
  EXPECT_GT(results.probes_per_query(), 1.0);
  EXPECT_GT(stats.membership_events, 100u);
}

TEST(OneHopDht, FasterDisseminationImprovesOneHopFraction) {
  auto run = [](double delay) {
    return run_measured(small_config(0.05, delay), 3600.0);
  };
  SearchResults fresh = run(5.0);
  SearchResults stale = run(300.0);
  EXPECT_GT(one_hop_fraction(fresh), one_hop_fraction(stale));
  EXPECT_LT(fresh.probes_per_query(), stale.probes_per_query());
}

TEST(OneHopDht, PopulationStaysConstant) {
  Fixture f(small_config(0.05));
  f.simulator.run_until(1800.0);
  EXPECT_EQ(f.backend.live_peers(), 200u);
}

TEST(OneHopDht, MaintenanceScalesWithChurn) {
  auto rate = [](double multiplier) {
    SearchResults results = run_measured(small_config(multiplier), 1800.0);
    return stats_of(results).maintenance_msgs_per_peer_per_sec(1800.0);
  };
  EXPECT_GT(rate(0.1), rate(1.0) * 3.0);
}

TEST(OneHopDht, ManualLookupCountsOnlyWhenMeasuring) {
  Fixture f;
  f.backend.lookup_random_key();  // pre-measurement: not counted
  EXPECT_EQ(f.backend.collect().queries_completed, 0u);
  f.backend.begin_measurement();
  f.backend.lookup_random_key();
  EXPECT_EQ(f.backend.collect().queries_completed, 1u);
}

TEST(OneHopDht, ParameterValidation) {
  SimulationConfig config = small_config();
  SystemParams system = config.system();
  system.network_size = 1;
  EXPECT_THROW(SimulationConfig(config).system(system).validate(),
               CheckError);
  EXPECT_THROW(small_config(1.0, -1.0).validate(), CheckError);
  EXPECT_THROW(run_search(small_config(1.0, -1.0)), CheckError);
}

TEST(OneHopDht, InitializeTwiceThrows) {
  Fixture f;
  EXPECT_THROW(f.backend.bootstrap(), CheckError);
}

}  // namespace
}  // namespace guess::search
