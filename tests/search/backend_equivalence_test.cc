// The backend-equivalence contract (DESIGN.md §12.2): every protocol
// driven through run_search() reproduces its frozen reference bit for bit,
// under both event-queue backends. "Bitwise" is literal: doubles compare ==.
//
// GUESS compares run_search and run_search_seeds against
// tests/testdata/guess_legacy.golden; flooding and the one-hop DHT against
// tests/testdata/backends_legacy.golden, recorded from the engines they
// replaced. Iterative deepening replicates its engine's driver sequence
// verbatim and compares the engine's results struct in the extension slot.
#include <gtest/gtest.h>

#include "baseline/iterative_deepening.h"
#include "common/check.h"
#include "baseline/static_population.h"
#include "content/content_model.h"
#include "search/backend.h"
#include "search/flood.h"
#include "search/onehop.h"
#include "sim/simulator.h"
#include "../testsupport/results_golden.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess::search {
namespace {

SystemParams small_system(std::size_t n = 150) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return system;
}

void expect_identical(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.values(), b.values());
}

class BackendEquivalenceTest : public ::testing::TestWithParam<sim::Scheduler> {
};

// --- GUESS ------------------------------------------------------------------

const testsupport::GoldenFile& legacy_goldens() {
  static const testsupport::GoldenFile goldens =
      testsupport::load_goldens("guess_legacy.golden");
  return goldens;
}

/// Golden case recorded for `name` under `scheduler`.
std::string equivalence_case(const std::string& name,
                             sim::Scheduler scheduler) {
  return "equivalence/" + name + "/" + sim::scheduler_name(scheduler);
}

TEST_P(BackendEquivalenceTest, GuessMatchesLegacySimulation) {
  auto config = SimulationConfig()
                    .system(small_system())
                    .protocol(ProtocolParams{})
                    .seed(11)
                    .warmup(200.0)
                    .measure(400.0)
                    .scheduler(GetParam());

  SearchResults unified = run_search(config);

  const auto* extra = unified.extra_as<SimulationResults>();
  ASSERT_NE(extra, nullptr);
  testsupport::expect_matches_golden(legacy_goldens(),
                                     equivalence_case("plain", GetParam()),
                                     testsupport::golden_record(*extra));

  // The unified mapping is arithmetic over the engine's struct.
  EXPECT_EQ(unified.backend, "guess");
  EXPECT_EQ(unified.queries_completed, extra->queries_completed);
  EXPECT_EQ(unified.queries_satisfied, extra->queries_satisfied);
  EXPECT_EQ(unified.probes, extra->probes.total());
  EXPECT_EQ(unified.deaths, extra->deaths);
  EXPECT_EQ(unified.measure_duration, 400.0);
  EXPECT_GT(unified.events_fired, 0u);
  expect_identical(unified.probe_samples, extra->query_probes);
  EXPECT_GT(unified.queries_completed, 0u);
  EXPECT_GT(unified.bytes_on_wire(), 0u);
}

TEST_P(BackendEquivalenceTest, GuessMatchesLegacyUnderFaultsAndLossAndIntervals) {
  // The loaded variant: lossy transport, a fault scenario, the interval
  // series and connectivity sampling all at once — every optional code path
  // of the driver loop must match the goldens.
  auto config = SimulationConfig()
                    .system(small_system())
                    .protocol(ProtocolParams{})
                    .transport(TransportParams::lossy(0.05))
                    .scenario(faults::Scenario::parse(
                        "at 300 kill 0.2\nat 360 join 30"))
                    .metrics_interval(60.0)
                    .sample_connectivity(true)
                    .seed(23)
                    .warmup(200.0)
                    .measure(400.0)
                    .scheduler(GetParam());

  SearchResults unified = run_search(config);

  const auto* extra = unified.extra_as<SimulationResults>();
  ASSERT_NE(extra, nullptr);
  testsupport::expect_matches_golden(legacy_goldens(),
                                     equivalence_case("faults", GetParam()),
                                     testsupport::golden_record(*extra));
  testsupport::expect_identical(unified.interval_series,
                                extra->interval_series);
  EXPECT_GT(unified.interval_series.size(), 0u);
}

// The seed sweep: run_search_seeds at 1 and 4 threads matches the golden
// sweep (recorded serially under the heap scheduler) field for field.
TEST_P(BackendEquivalenceTest, GuessSeedSweepMatchesLegacyRunSeeds) {
  ProtocolParams mfs;
  mfs.query_pong = Policy::kMFS;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto runs = run_search_seeds(SimulationConfig()
                                     .system(small_system())
                                     .protocol(mfs)
                                     .seed(5)
                                     .warmup(200.0)
                                     .measure(400.0)
                                     .sample_connectivity(true)
                                     .threads(threads)
                                     .scheduler(GetParam()),
                                 3);
    ASSERT_EQ(runs.size(), 3u);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE("seed index " + std::to_string(i));
      const auto* extra = runs[i].extra_as<SimulationResults>();
      ASSERT_NE(extra, nullptr);
      testsupport::expect_matches_golden(legacy_goldens(),
                                         "seeds/" + std::to_string(i),
                                         testsupport::golden_record(*extra));
    }
  }
}

// --- Flooding and one-hop DHT ----------------------------------------------
//
// Both are native backends; their goldens were recorded from the engines
// they replaced, in four variants: plain, a lossy transport, open-loop
// arrivals under admission control (with the interval series), and a
// kill + join fault scenario. Each record holds every SearchResults field
// and, as extra.*, every field of the engine's own results struct —
// reconstructed here from the unified results and the backend's payload.

const testsupport::GoldenFile& backend_goldens() {
  static const testsupport::GoldenFile goldens =
      testsupport::load_goldens("backends_legacy.golden");
  return goldens;
}

const char* const kGoldenVariants[] = {"plain", "lossy", "open", "faults"};

SimulationConfig golden_variant(SearchBackendId backend, std::uint64_t seed,
                                const std::string& variant,
                                sim::Scheduler scheduler) {
  auto config = SimulationConfig()
                    .system(small_system())
                    .backend(backend)
                    .seed(seed)
                    .warmup(200.0)
                    .measure(400.0)
                    .scheduler(scheduler);
  if (variant == "lossy") config.transport(TransportParams::lossy(0.05));
  if (variant == "open") {
    config.arrival(sim::ArrivalMode::kOpen)
        .offered_qps(2.0)
        .overload_policy(OverloadPolicy::kAdmit)
        .metrics_interval(60.0);
  }
  if (variant == "faults") {
    config.scenario(
        faults::Scenario::parse("at 300 kill 0.3\nat 360 join 30"));
  }
  return config;
}

std::string golden_case(const char* backend, const std::string& variant,
                        sim::Scheduler scheduler) {
  return std::string(backend) + "/" + variant + "/" +
         sim::scheduler_name(scheduler);
}

testsupport::GoldenRecord with_extra(const SearchResults& r,
                                     testsupport::GoldenRecord extra) {
  testsupport::GoldenRecord record = testsupport::golden_record(r);
  for (auto& field : extra) record.push_back(std::move(field));
  return record;
}

testsupport::GoldenRecord flood_record(const SearchResults& r) {
  const auto* stats = r.extra_as<FloodStats>();
  EXPECT_NE(stats, nullptr);
  if (stats == nullptr) return {};
  testsupport::GoldenRecorder b;
  b.add("extra.queries_completed", r.queries_completed);
  b.add("extra.queries_satisfied", r.queries_satisfied);
  b.add("extra.messages", r.query_messages);
  b.add("extra.peers_reached", r.probes);
  b.add("extra.response_time", r.response_time);
  b.add("extra.peer_loads", stats->peer_loads.values());
  b.add("extra.deaths", r.deaths);
  b.add("extra.repairs", stats->repairs);
  b.add("extra.query_reach", r.probe_samples.values());
  return with_extra(r, b.take());
}

testsupport::GoldenRecord onehop_record(const SearchResults& r) {
  const auto* stats = r.extra_as<OneHopStats>();
  EXPECT_NE(stats, nullptr);
  if (stats == nullptr) return {};
  // The engine kept the per-lookup probe count twice: as a running stat and
  // as the sample set that is now SearchResults::probe_samples.
  RunningStat probes_per_lookup;
  for (double v : r.probe_samples.values()) probes_per_lookup.add(v);
  testsupport::GoldenRecorder b;
  b.add("extra.lookups", r.queries_completed);
  b.add("extra.one_hop", stats->one_hop);
  b.add("extra.corrective_hops", stats->corrective_hops);
  b.add("extra.timeouts", stats->timeouts);
  b.add("extra.probes_per_lookup", probes_per_lookup);
  b.add("extra.lookup_probes", r.probe_samples.values());
  b.add("extra.deaths", r.deaths);
  b.add("extra.membership_events", stats->membership_events);
  return with_extra(r, b.take());
}

TEST_P(BackendEquivalenceTest, FloodMatchesLegacyDriver) {
  for (const char* variant : kGoldenVariants) {
    SCOPED_TRACE(variant);
    SearchResults r = run_search(
        golden_variant(SearchBackendId::kFlood, 31, variant, GetParam()));
    EXPECT_EQ(r.backend, "flood");
    EXPECT_GT(r.queries_completed, 0u);
    testsupport::expect_matches_golden(
        backend_goldens(), golden_case("flood", variant, GetParam()),
        flood_record(r));
  }
}

TEST_P(BackendEquivalenceTest, OneHopMatchesLegacyDriver) {
  for (const char* variant : kGoldenVariants) {
    SCOPED_TRACE(variant);
    SearchResults r = run_search(
        golden_variant(SearchBackendId::kOneHop, 37, variant, GetParam()));
    EXPECT_EQ(r.backend, "onehop");
    EXPECT_GT(r.queries_completed, 0u);
    // Exact-match lookups always resolve.
    EXPECT_EQ(r.queries_satisfied, r.queries_completed);
    testsupport::expect_matches_golden(
        backend_goldens(), golden_case("onehop", variant, GetParam()),
        onehop_record(r));
  }
}

// --- Iterative deepening ----------------------------------------------------

TEST_P(BackendEquivalenceTest, IterativeMatchesLegacyDriver) {
  SystemParams system = small_system();
  const std::size_t num_queries = 2000;

  // The legacy driver sequence (bench_fig08's): model, population from the
  // run's RNG, then the Monte-Carlo batch from the same RNG.
  content::ContentModel model(system.content);
  Rng rng(41);
  baseline::StaticPopulation population(model, system.network_size, rng);
  baseline::DeepeningResult legacy = baseline::evaluate_iterative_deepening(
      population, model, baseline::default_schedule(system.network_size),
      num_queries,
      static_cast<std::uint32_t>(system.num_desired_results), rng);

  IterativeBackendParams tuning;
  tuning.num_queries = num_queries;
  SearchResults unified = run_search(SimulationConfig()
                                         .system(system)
                                         .backend(SearchBackendId::kIterative)
                                         .iterative(tuning)
                                         .seed(41)
                                         .scheduler(GetParam()));

  const auto* extra = unified.extra_as<baseline::DeepeningResult>();
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(legacy.avg_cost, extra->avg_cost);
  EXPECT_EQ(legacy.unsatisfied_rate, extra->unsatisfied_rate);

  EXPECT_EQ(unified.backend, "iterative");
  EXPECT_EQ(unified.queries_completed, num_queries);
  EXPECT_EQ(unified.probe_samples.size(), num_queries);
  EXPECT_GT(unified.probes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, BackendEquivalenceTest,
                         ::testing::Values(sim::Scheduler::kHeap,
                                           sim::Scheduler::kCalendar),
                         [](const auto& info) {
                           return sim::scheduler_name(info.param);
                         });

// --- registry ---------------------------------------------------------------

TEST(BackendRegistry, AllFiveBackendsRegistered) {
  std::vector<SearchBackendId> ids = registered_backends();
  ASSERT_EQ(ids.size(), 5u);
  for (SearchBackendId id : ids) {
    sim::Simulator simulator;
    auto backend = make_backend(
        SimulationConfig().system(small_system(50)).backend(id), simulator,
        Rng(1));
    ASSERT_NE(backend, nullptr);
    EXPECT_STREQ(backend->name(), backend_name(id));
  }
}

TEST(BackendRegistry, BackendNamesRoundTrip) {
  for (SearchBackendId id : registered_backends()) {
    EXPECT_EQ(parse_backend(backend_name(id)), id);
  }
  EXPECT_THROW(parse_backend("carrier-pigeon"), CheckError);
}

TEST(BackendRegistry, NonGuessBackendsRejectUnsupportedFaults) {
  sim::Simulator simulator;
  auto backend = make_backend(SimulationConfig()
                                  .system(small_system(50))
                                  .backend(SearchBackendId::kFlood),
                              simulator, Rng(1));
  EXPECT_THROW(backend->fault_set_poisoning(true), CheckError);
  EXPECT_THROW(backend->fault_set_partition(2), CheckError);
}

TEST(BackendRegistry, EveryBackendSupportsMassKillAndJoin) {
  for (SearchBackendId id : registered_backends()) {
    sim::Simulator simulator;
    auto backend = make_backend(
        SimulationConfig().system(small_system(50)).backend(id), simulator,
        Rng(1));
    backend->bootstrap();
    std::size_t before = backend->live_peers();
    EXPECT_NO_THROW(backend->fault_mass_kill(0.2)) << backend->name();
    EXPECT_LT(backend->live_peers(), before) << backend->name();
    EXPECT_NO_THROW(backend->fault_mass_join(10)) << backend->name();
  }
}

}  // namespace
}  // namespace guess::search
