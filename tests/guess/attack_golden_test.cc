// Frozen goldens for §6.4 cache poisoning and open-loop overload control
// (tests/testdata/guess_attack.golden): every field of each run's results,
// compared with literal ==, so a refactor of the attacker registry or the
// overload controller is proven to change no number.
#include <gtest/gtest.h>

#include <string>

#include "experiments/harness.h"
#include "faults/scenario.h"
#include "guess/config.h"
#include "guess/transport.h"
#include "search/backend.h"
#include "../testsupport/results_golden.h"

namespace guess {
namespace {

SystemParams poisoned_system(BadPongBehavior behavior) {
  SystemParams system;
  system.network_size = 200;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = behavior;
  return system;
}

ProtocolParams combo(const char* name) {
  return experiments::PolicyCombo::from_name(name).apply(ProtocolParams{});
}

SimulationConfig poison_config(BadPongBehavior behavior, const char* policy,
                               const char* scenario) {
  return SimulationConfig()
      .system(poisoned_system(behavior))
      .protocol(combo(policy))
      .seed(23)
      .warmup(150.0)
      .measure(450.0)
      .metrics_interval(50.0)
      .scenario(faults::Scenario::parse(scenario));
}

SimulationConfig open_loop_config(OverloadParams overload, double qps) {
  SystemParams system;
  system.network_size = 120;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return SimulationConfig()
      .system(system)
      .seed(7)
      .warmup(0.0)
      .measure(150.0)
      .metrics_interval(30.0)
      .arrival(sim::ArrivalMode::kOpen)
      .offered_qps(qps)
      .overload(overload);
}

const testsupport::GoldenFile& attack_goldens() {
  static const testsupport::GoldenFile goldens =
      testsupport::load_goldens("guess_attack.golden");
  return goldens;
}

/// Compare `config`'s run against golden case `name`; the GUESS engine's
/// results always, the open-loop accounting when the run was open-loop.
void expect_run_matches(const std::string& name,
                        const SimulationConfig& config) {
  search::SearchResults run = search::run_search(config);
  const auto* extra = run.extra_as<SimulationResults>();
  ASSERT_NE(extra, nullptr);
  testsupport::GoldenRecord record = testsupport::golden_record(*extra);
  if (run.overload.open_loop) {
    testsupport::GoldenRecorder overload;
    overload.add("overload", run.overload);
    for (auto& field : overload.take()) record.push_back(std::move(field));
  }
  testsupport::expect_matches_golden(attack_goldens(), name, record);
}

// --- §6.4 cache poisoning -------------------------------------------------

// Under the lossy transport, so poisoned pongs also travel the scheduled
// (asynchronous) probe and ping completions.
TEST(AttackGolden, PoisonDeadLossy) {
  TransportParams transport;
  transport.kind = TransportParams::Kind::kLossy;
  transport.loss = 0.05;
  transport.max_retries = 1;
  expect_run_matches(
      "poison/dead-lossy",
      poison_config(BadPongBehavior::kDead, "MFS", "").transport(transport));
}

TEST(AttackGolden, PoisonBadToggled) {
  expect_run_matches(
      "poison/bad-toggled",
      poison_config(BadPongBehavior::kBad, "MR",
                    "at 250 poison off; at 400 poison on"));
}

// Poisoners die (natural churn plus a mass kill) and respawn while an
// eclipse cohort is deployed: both kinds of attacker share the run.
TEST(AttackGolden, PoisonBadWithEclipseAndKill) {
  expect_run_matches(
      "poison/bad-eclipse-kill",
      poison_config(BadPongBehavior::kBad, "MR",
                    "at 200 attack eclipse frac=0.1 for 250; at 300 kill 0.3"));
}

// --- open-loop overload control -------------------------------------------

TEST(AttackGolden, OpenLoopNone) {
  OverloadParams overload;
  overload.policy = OverloadPolicy::kNone;
  expect_run_matches("overload/none", open_loop_config(overload, 8.0));
}

TEST(AttackGolden, OpenLoopAdmit) {
  OverloadParams overload;
  overload.policy = OverloadPolicy::kAdmit;
  overload.max_in_flight = 4;
  expect_run_matches("overload/admit", open_loop_config(overload, 20.0));
}

TEST(AttackGolden, OpenLoopShed) {
  OverloadParams overload;
  overload.policy = OverloadPolicy::kShed;
  overload.max_in_flight = 4;
  overload.queue_capacity = 16;
  overload.shed_watermark = 4;
  expect_run_matches("overload/shed", open_loop_config(overload, 20.0));
}

}  // namespace
}  // namespace guess
