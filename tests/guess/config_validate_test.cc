// SimulationConfig::validate() bounds audit: every numeric field rejects
// out-of-range AND non-finite values (NaN compares false against every
// range check, so each field needs an explicit isfinite guard).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "guess/config.h"
#include "guess/link_cache.h"

namespace guess {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ConfigValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(SimulationConfig().validate());
}

// --- SystemParams (Table 1) ---

TEST(ConfigValidate, SystemBounds) {
  auto with = [](auto mutate) {
    SystemParams system;
    mutate(system);
    return SimulationConfig().system(system);
  };
  EXPECT_THROW(with([](SystemParams& s) { s.network_size = 1; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.num_desired_results = 0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.lifespan_multiplier = 0.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.lifespan_multiplier = kNaN; }).validate(),
      CheckError);
  EXPECT_THROW(with([](SystemParams& s) { s.query_rate = -1.0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](SystemParams& s) { s.query_rate = kNaN; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.percent_bad_peers = 101.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.percent_bad_peers = kNaN; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.percent_selfish_peers = -0.5; }).validate(),
      CheckError);
  EXPECT_THROW(with([](SystemParams& s) {
                 s.percent_bad_peers = 60.0;
                 s.percent_selfish_peers = 60.0;  // together > 100
               }).validate(),
               CheckError);
  EXPECT_THROW(with([](SystemParams& s) {
                 s.burst_min = 5;
                 s.burst_max = 2;
               }).validate(),
               CheckError);
}

// --- MaliciousParams / AdversaryParams (§6.4, DESIGN.md §11) ---

/// A config whose attacker block is `mutate`d from the defaults.
template <typename Mutate>
SimulationConfig with_malicious(Mutate mutate) {
  MaliciousParams malicious;
  mutate(malicious);
  return SimulationConfig().malicious(malicious);
}

/// validate() throws a CheckError naming `field`.
template <typename Mutate>
void expect_rejected(const char* field, Mutate mutate) {
  try {
    with_malicious(mutate).validate();
    ADD_FAILURE() << field << " accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

// The pool factors are cast to a pool size: NaN or a negative value there is
// undefined behavior, a huge one an absurd allocation.
TEST(ConfigValidate, DeadPoolFactorBounds) {
  for (double bad : {kNaN, kInf, -1.0, 1e9}) {
    expect_rejected("dead_pool_factor",
                    [bad](MaliciousParams& m) { m.dead_pool_factor = bad; });
  }
  for (double ok : {0.0, 10.0, 1000.0}) {
    EXPECT_NO_THROW(with_malicious([ok](MaliciousParams& m) {
                      m.dead_pool_factor = ok;
                    }).validate());
  }
}

TEST(ConfigValidate, FloodPoolFactorBounds) {
  for (double bad : {kNaN, kInf, -0.5, 1e9}) {
    expect_rejected("flood_pool_factor", [bad](MaliciousParams& m) {
      m.adversary.flood_pool_factor = bad;
    });
  }
  for (double ok : {0.0, 4.0, 1000.0}) {
    EXPECT_NO_THROW(with_malicious([ok](MaliciousParams& m) {
                      m.adversary.flood_pool_factor = ok;
                    }).validate());
  }
}

// Cast to a pong length.
TEST(ConfigValidate, PongFloodFactorBounds) {
  for (double bad : {kNaN, -kInf, -2.0, 1e9}) {
    expect_rejected("pong_flood_factor", [bad](MaliciousParams& m) {
      m.adversary.pong_flood_factor = bad;
    });
  }
  for (double ok : {0.0, 8.0, 1000.0}) {
    EXPECT_NO_THROW(with_malicious([ok](MaliciousParams& m) {
                      m.adversary.pong_flood_factor = ok;
                    }).validate());
  }
}

// Cohort ping interval = ping_interval / boost: 0 gives an infinite interval,
// a negative boost a negative one.
TEST(ConfigValidate, EclipsePingBoostBounds) {
  for (double bad : {kNaN, kInf, 0.0, -8.0}) {
    expect_rejected("eclipse_ping_boost", [bad](MaliciousParams& m) {
      m.adversary.eclipse_ping_boost = bad;
    });
  }
  EXPECT_NO_THROW(with_malicious([](MaliciousParams& m) {
                    m.adversary.eclipse_ping_boost = 0.5;
                  }).validate());
}

// 0 keeps each sybil identity for the whole window; negative is nonsense.
TEST(ConfigValidate, SybilLifetimeBounds) {
  for (double bad : {kNaN, kInf, -30.0}) {
    expect_rejected("sybil_lifetime", [bad](MaliciousParams& m) {
      m.adversary.sybil_lifetime = bad;
    });
  }
  EXPECT_NO_THROW(with_malicious([](MaliciousParams& m) {
                    m.adversary.sybil_lifetime = 0.0;
                  }).validate());
}

// --- ContentParams (DESIGN.md substitutions #2 and #3) ---

TEST(ConfigValidate, ContentBounds) {
  auto with = [](auto mutate) {
    SystemParams system;
    mutate(system.content);
    return SimulationConfig().system(system);
  };
  using content::ContentParams;
  EXPECT_THROW(with([](ContentParams& c) { c.file_alpha = kNaN; }).validate(),
               CheckError);
  EXPECT_THROW(with([](ContentParams& c) { c.file_alpha = -0.1; }).validate(),
               CheckError);
  EXPECT_THROW(with([](ContentParams& c) { c.query_alpha = kInf; }).validate(),
               CheckError);
  EXPECT_THROW(with([](ContentParams& c) { c.query_alpha = -1.0; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](ContentParams& c) { c.free_rider_fraction = kNaN; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](ContentParams& c) { c.free_rider_fraction = 1.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](ContentParams& c) { c.max_library_fraction = kNaN; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](ContentParams& c) { c.max_library_fraction = 0.0; }).validate(),
      CheckError);
  // Would ask for up to 200 distinct files out of 100: an endless loop.
  EXPECT_THROW(with([](ContentParams& c) {
                 c.catalog_size = 100;
                 c.query_universe = 100;
                 c.max_library_fraction = 2.0;
               }).validate(),
               CheckError);
  EXPECT_THROW(with([](ContentParams& c) {
                 c.catalog_size = 0;
                 c.query_universe = 0;
               }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](ContentParams& c) { c.query_universe = c.catalog_size - 1; })
          .validate(),
      CheckError);
  EXPECT_THROW(with([](ContentParams& c) {
                 c.catalog_size = 4;
                 c.query_universe = 4;
                 c.max_library_fraction = 0.2;  // cap 0.8 files
               }).validate(),
               CheckError);
  EXPECT_NO_THROW(with([](ContentParams& c) {
                    c.catalog_size = 5;
                    c.query_universe = 5;
                    c.max_library_fraction = 0.2;  // cap exactly 1 file
                  }).validate());
  EXPECT_NO_THROW(with([](ContentParams& c) {
                    c.max_library_fraction = 1.0;
                  }).validate());
}

// --- ProtocolParams (Table 2) ---

TEST(ConfigValidate, ProtocolBounds) {
  auto with = [](auto mutate) {
    ProtocolParams protocol;
    mutate(protocol);
    return SimulationConfig().protocol(protocol);
  };
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.ping_interval = 0.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.probe_interval = -1.0; }).validate(),
      CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) { p.cache_size = 0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) { p.pong_size = 0; }).validate(),
               CheckError);
  // CacheSize and PongSize stop at what a 16-bit cache position addresses;
  // a negative value wrapped through an unsigned cast lands far above it.
  constexpr std::size_t kMax = LinkCache::kMaxCapacity;
  EXPECT_NO_THROW(
      with([](ProtocolParams& p) { p.cache_size = kMax; }).validate());
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.cache_size = kMax + 1; }).validate(),
      CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) {
                 p.cache_size = static_cast<std::size_t>(-1);
               }).validate(),
               CheckError);
  EXPECT_NO_THROW(
      with([](ProtocolParams& p) { p.pong_size = kMax; }).validate());
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.pong_size = kMax + 1; }).validate(),
      CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) {
                 p.pong_size = static_cast<std::size_t>(-1);
               }).validate(),
               CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) { p.intro_prob = 1.5; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.parallel_probes = 0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.backoff_duration = -1.0; }).validate(),
      CheckError);
}

// --- TransportParams (DESIGN.md §8) ---

TEST(ConfigValidate, TransportBounds) {
  auto with = [](auto mutate) {
    TransportParams transport;
    mutate(transport);
    return SimulationConfig().transport(transport);
  };
  EXPECT_THROW(with([](TransportParams& t) { t.loss = 1.5; }).validate(),
               CheckError);
  EXPECT_THROW(with([](TransportParams& t) { t.loss = kNaN; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.probe_timeout = 0.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.link_latency = -0.1; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.link_latency = kInf; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.retry_backoff = -1.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.max_retries = 1001; }).validate(),
      CheckError);
  EXPECT_THROW(with([](TransportParams& t) { t.max_backoff = 0.0; }).validate(),
               CheckError);
}

// --- Run control ---

TEST(ConfigValidate, RunControlBounds) {
  EXPECT_THROW(SimulationConfig().warmup(-1.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().warmup(kNaN).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().measure(-1.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().measure(kInf).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().metrics_interval(-60.0).validate(),
               CheckError);
  EXPECT_THROW(SimulationConfig().metrics_interval(kNaN).validate(),
               CheckError);
  EXPECT_THROW(SimulationConfig().threads(-1).validate(), CheckError);
}

// --- Open-loop arrivals + overload control (DESIGN.md §13) ---

TEST(ConfigValidate, OpenLoopRequiresPositiveOfferedRate) {
  EXPECT_THROW(
      SimulationConfig().arrival(sim::ArrivalMode::kOpen).validate(),
      CheckError);
  EXPECT_THROW(SimulationConfig()
                   .arrival(sim::ArrivalMode::kOpen)
                   .offered_qps(-5.0)
                   .validate(),
               CheckError);
  EXPECT_THROW(SimulationConfig()
                   .arrival(sim::ArrivalMode::kOpen)
                   .offered_qps(kNaN)
                   .validate(),
               CheckError);
  EXPECT_NO_THROW(SimulationConfig()
                      .arrival(sim::ArrivalMode::kOpen)
                      .offered_qps(10.0)
                      .validate());
}

TEST(ConfigValidate, ClosedLoopRejectsOpenLoopKnobs) {
  // offered_qps without --arrival=open is a silent no-op the user almost
  // certainly did not intend; validate turns it into a hard error.
  EXPECT_THROW(SimulationConfig().offered_qps(10.0).validate(), CheckError);
  EXPECT_THROW(
      SimulationConfig().overload_policy(OverloadPolicy::kAdmit).validate(),
      CheckError);
}

TEST(ConfigValidate, SloMustBePositiveAndFinite) {
  EXPECT_THROW(SimulationConfig().slo(0.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().slo(-2.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().slo(kNaN).validate(), CheckError);
}

TEST(ConfigValidate, OverloadParamBounds) {
  auto with = [](auto mutate) {
    OverloadParams overload;
    mutate(overload);
    return SimulationConfig()
        .arrival(sim::ArrivalMode::kOpen)
        .offered_qps(10.0)
        .overload(overload);
  };
  EXPECT_THROW(with([](OverloadParams& o) { o.max_in_flight = 0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](OverloadParams& o) { o.queue_capacity = 0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](OverloadParams& o) { o.shed_watermark = 0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](OverloadParams& o) {
                 o.queue_capacity = 8;
                 o.shed_watermark = 9;  // > queue_capacity
               }).validate(),
               CheckError);
  for (OverloadPolicy policy :
       {OverloadPolicy::kNone, OverloadPolicy::kAdmit, OverloadPolicy::kShed}) {
    EXPECT_NO_THROW(
        with([policy](OverloadParams& o) { o.policy = policy; }).validate());
  }
}

// --- Backend tuning blocks ---

TEST(ConfigValidate, BackendBlockBounds) {
  {
    FloodBackendParams flood;
    flood.ttl = 0;
    EXPECT_THROW(SimulationConfig().flood(flood).validate(), CheckError);
  }
  {
    FloodBackendParams flood;
    flood.target_degree = 8;
    flood.max_degree = 4;
    EXPECT_THROW(SimulationConfig().flood(flood).validate(), CheckError);
  }
  {
    IterativeBackendParams iterative;
    iterative.schedule = {10, 10};  // not strictly increasing
    EXPECT_THROW(SimulationConfig().iterative(iterative).validate(),
                 CheckError);
  }
  {
    OneHopBackendParams onehop;
    onehop.dissemination_delay = -1.0;
    EXPECT_THROW(SimulationConfig().onehop(onehop).validate(), CheckError);
  }
  {
    GossipBackendParams gossip;
    gossip.fanout = 0;
    EXPECT_THROW(SimulationConfig().gossip(gossip).validate(), CheckError);
  }
  {
    GossipBackendParams gossip;
    gossip.probe_interval = 0.0;
    EXPECT_THROW(SimulationConfig().gossip(gossip).validate(), CheckError);
  }
}

// Flooding wires target_degree links per peer: it needs at least
// target_degree + 2 peers. Other backends accept the same small network.
TEST(ConfigValidate, FloodNetworkMustExceedTargetDegreePlusOne) {
  auto flood_with = [](std::size_t n, std::size_t target_degree) {
    SystemParams system;
    system.network_size = n;
    FloodBackendParams flood;
    flood.target_degree = target_degree;
    flood.max_degree = std::max<std::size_t>(target_degree, 12);
    return SimulationConfig()
        .system(system)
        .flood(flood)
        .backend(SearchBackendId::kFlood);
  };
  EXPECT_THROW(flood_with(4, 4).validate(), CheckError);
  EXPECT_THROW(flood_with(5, 4).validate(), CheckError);
  EXPECT_NO_THROW(flood_with(6, 4).validate());
  EXPECT_THROW(flood_with(9, 8).validate(), CheckError);
  EXPECT_NO_THROW(flood_with(10, 8).validate());
  for (SearchBackendId other :
       {SearchBackendId::kGuess, SearchBackendId::kIterative,
        SearchBackendId::kOneHop, SearchBackendId::kGossip}) {
    EXPECT_NO_THROW(flood_with(5, 4).backend(other).validate())
        << backend_name(other);
  }
}

// Gossip exchanges with fanout other peers per round.
TEST(ConfigValidate, GossipFanoutMustBeBelowNetworkSize) {
  auto gossip_with = [](std::size_t n, std::size_t fanout) {
    SystemParams system;
    system.network_size = n;
    GossipBackendParams gossip;
    gossip.fanout = fanout;
    return SimulationConfig()
        .system(system)
        .gossip(gossip)
        .backend(SearchBackendId::kGossip);
  };
  EXPECT_THROW(gossip_with(2, 2).validate(), CheckError);
  EXPECT_NO_THROW(gossip_with(3, 2).validate());
  EXPECT_THROW(gossip_with(5, 5).validate(), CheckError);
  EXPECT_NO_THROW(gossip_with(6, 5).validate());
  EXPECT_NO_THROW(gossip_with(2, 2).backend(SearchBackendId::kGuess).validate());
}

// A lossy transport may drop everything for GUESS and gossip (their
// exchanges time out), but flooding and the one-hop DHT need loss < 1.
TEST(ConfigValidate, FloodAndOneHopRejectTotalLoss) {
  for (SearchBackendId id :
       {SearchBackendId::kFlood, SearchBackendId::kOneHop}) {
    SCOPED_TRACE(backend_name(id));
    EXPECT_THROW(SimulationConfig()
                     .backend(id)
                     .transport(TransportParams::lossy(1.0))
                     .validate(),
                 CheckError);
    EXPECT_NO_THROW(SimulationConfig()
                        .backend(id)
                        .transport(TransportParams::lossy(
                            std::nextafter(1.0, 0.0)))
                        .validate());
    EXPECT_NO_THROW(SimulationConfig()
                        .backend(id)
                        .transport(TransportParams::lossy(0.0))
                        .validate());
  }
  EXPECT_NO_THROW(
      SimulationConfig().transport(TransportParams::lossy(1.0)).validate());
}

// Only GUESS has a maintenance-only mode; every other backend would ignore
// enable_queries(false) and run queries anyway.
TEST(ConfigValidate, EnableQueriesFalseIsGuessOnly) {
  EXPECT_NO_THROW(SimulationConfig().enable_queries(false).validate());
  for (SearchBackendId id :
       {SearchBackendId::kFlood, SearchBackendId::kIterative,
        SearchBackendId::kOneHop, SearchBackendId::kGossip}) {
    EXPECT_THROW(
        SimulationConfig().backend(id).enable_queries(false).validate(),
        CheckError)
        << backend_name(id);
    EXPECT_NO_THROW(SimulationConfig().backend(id).validate())
        << backend_name(id);
  }
}

}  // namespace
}  // namespace guess
