// Test drivers for GUESS runs.
//
// run_guess(): one search::run_search, returning the GUESS engine's own
// results (the extra_as<SimulationResults>() slot) for tests that assert on
// GUESS-specific fields.
//
// GuessRun: a step-by-step run for tests that must reach the network itself
// (peers' ledgers after the run, debug hooks before it). It drives
// sim::Simulator + GuessNetwork (+ faults::FaultEngine) directly with
// run_search's full GUESS schedule — bootstrap, fault scenario, interval
// sampler, warmup, measurement with the cache-health and connectivity
// samplers, end-of-run connectivity snapshot — so run() returns exactly what
// run_guess() returns for the same config
// (Determinism.SlotAssignmentInvisibleUnderChurn checks this).
#pragma once

#include <any>
#include <memory>
#include <utility>

#include "analysis/overlay_graph.h"
#include "faults/fault_engine.h"
#include "guess/config.h"
#include "guess/metrics.h"
#include "guess/network.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::testsupport {

inline SimulationResults run_guess(const SimulationConfig& config) {
  search::SearchResults run = search::run_search(config);
  return std::any_cast<SimulationResults>(std::move(run.extra));
}

class GuessRun {
 public:
  /// Validates the config (CheckError on nonsense) and builds the network.
  explicit GuessRun(const SimulationConfig& config)
      : config_(config.validate()),
        simulator_(config_.options().scheduler),
        network_(config_, simulator_, Rng(config_.seed())) {}

  GuessNetwork& network() { return network_; }

  /// Bootstrap, warm up and measure; returns the collected results.
  SimulationResults run() {
    const SimulationOptions& options = config_.options();
    network_.initialize();
    if (!config_.scenario().empty()) {
      faults_ = std::make_unique<faults::FaultEngine>(config_.scenario(),
                                                      simulator_, network_);
      faults_->schedule();
    }
    if (options.metrics_interval > 0.0) {
      network_.begin_interval_metrics(options.metrics_interval);
      simulator_.every(options.metrics_interval, options.metrics_interval,
                       [this]() { network_.sample_interval(); });
    }
    simulator_.run_until(options.warmup);

    network_.begin_measurement();
    network_.sample_cache_health();
    simulator_.every(options.health_sample_interval,
                     options.health_sample_interval,
                     [this]() { network_.sample_cache_health(); });
    if (options.sample_connectivity) {
      simulator_.every(options.connectivity_sample_interval,
                       options.connectivity_sample_interval,
                       [this]() { network_.sample_connectivity(); });
    }
    simulator_.run_until(options.warmup + options.measure);

    if (options.sample_connectivity) network_.sample_connectivity();
    SimulationResults results = network_.collect_results();
    results.measure_duration = options.measure;
    if (options.sample_connectivity) {
      analysis::OverlayGraph graph;
      for (PeerId id : network_.alive_ids()) graph.add_node(id);
      network_.visit_live_edges(
          [&](PeerId from, PeerId to) { graph.add_edge(from, to); });
      results.final_largest_component = graph.largest_weak_component();
      results.final_largest_strong_component =
          graph.largest_strong_component();
    }
    return results;
  }

 private:
  SimulationConfig config_;
  sim::Simulator simulator_;
  GuessNetwork network_;
  std::unique_ptr<faults::FaultEngine> faults_;
};

}  // namespace guess::testsupport
