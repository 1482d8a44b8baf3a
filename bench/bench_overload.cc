// Open-loop overload matrix (DESIGN.md §13): offered load swept past
// saturation — 0.5×/1×/2×/5×/10× of a calibrated capacity — for each
// overload policy (none / admit / shed) in each environment
// (static membership, paper churn, churn + 5% loss), reporting tail latency
// (p50/p95/p99/p99.9, censored at window close), goodput and SLO-violation
// rate.
//
// Capacity is measured, not assumed: a calibration cell per environment runs
// admission control against a deliberately excessive offered rate and takes
// the completion rate as the sustainable throughput (for GUESS the paper's
// global probe-rate cap is the bottleneck, so capacity is nearly independent
// of network size).
//
// Results are printed as one table per environment and written to
// BENCH_overload.json (override with --out=...). Two gates make the bench a
// CI check rather than a report:
//   * the design gate: at 2× capacity the uncontrolled baseline must
//     degrade (violation rate at least --degrade-margin above its own
//     light-load 0.5× cell) AND at least one policy must hold — violation
//     rate within --hold-margin of that light-load cell at no less than its
//     goodput — in at least one environment. This is the reason the
//     overload controller exists.
//   * the regression gate (--check=<baseline.json>): every cell, capacity
//     and config value must equal a previously checked-in baseline exactly
//     (bench_report.h); the runs are deterministic.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "guess/config.h"
#include "search/backend.h"

namespace guess {
namespace {

struct Environment {
  std::string name;
  double lifespan_multiplier = 1.0;
  double loss = 0.0;
};

std::vector<Environment> environments() {
  return {
      {"static", 500.0, 0.0},  // membership frozen in place
      {"churn", 1.0, 0.0},     // the paper's lifetime distribution
      {"loss", 1.0, 0.05},     // churn + 5% i.i.d. message loss
  };
}

const std::vector<double>& load_multiples() {
  static const std::vector<double> kLoads = {0.5, 1.0, 2.0, 5.0, 10.0};
  return kLoads;
}

const std::vector<OverloadPolicy>& policies() {
  static const std::vector<OverloadPolicy> kPolicies = {
      OverloadPolicy::kNone, OverloadPolicy::kAdmit, OverloadPolicy::kShed};
  return kPolicies;
}

struct BenchParams {
  std::size_t n = 250;
  double warmup = 150.0;
  double measure = 300.0;
  double slo = 10.0;
  std::uint64_t seed = 42;
};

/// What the calibration cell measured about one environment.
struct Calibration {
  double capacity_qps = 0.0;   ///< sustainable completions per second
  double service_p50 = 0.0;    ///< median unqueued query latency, seconds
};

/// The calibration (zeroed during calibration itself) tunes the shedding
/// controller to the environment:
///   * the queue is sized to the SLO — a full queue must drain in about
///     slo/2 at sustainable throughput, else it is pure bufferbloat (every
///     admitted query blows the SLO waiting, and shedding can only look
///     worse than rejecting at the door);
///   * the in-flight budget is twice the Little's-law concurrency
///     (capacity × median service time), enough to keep the system at its
///     sustainable throughput.
SimulationConfig cell_config(const Environment& env, OverloadPolicy policy,
                             double offered_qps, const BenchParams& params,
                             const Calibration& calibration) {
  SystemParams system;
  system.network_size = params.n;
  system.lifespan_multiplier = env.lifespan_multiplier;
  OverloadParams overload;
  overload.policy = policy;
  double capacity = calibration.capacity_qps;
  if (capacity > 0.0 && policy == OverloadPolicy::kShed) {
    auto depth = static_cast<std::size_t>(
        std::max(4.0, capacity * params.slo / 2.0));
    overload.queue_capacity = depth;
    overload.shed_watermark = depth;
    auto floor = static_cast<std::size_t>(
        std::max(4.0, std::ceil(capacity * calibration.service_p50)));
    overload.max_in_flight = 2 * floor;
  }
  auto config = SimulationConfig()
                    .system(system)
                    .seed(params.seed)
                    .warmup(params.warmup)
                    .measure(params.measure)
                    .arrival(sim::ArrivalMode::kOpen)
                    .offered_qps(offered_qps)
                    .overload(overload)
                    .slo(params.slo);
  if (env.loss > 0.0) {
    config.transport(TransportParams::lossy(env.loss));
  }
  return config;
}

/// Measure one environment: admission control against an offered rate far
/// past saturation. Whatever completes per second is the sustainable
/// throughput, and (admission control never queues) the median completion
/// latency is the unqueued service time.
Calibration calibrate(const Environment& env, const BenchParams& params,
                      double probe_qps) {
  auto config = cell_config(env, OverloadPolicy::kAdmit, probe_qps, params,
                            Calibration{});
  search::SearchResults r = search::run_search(config);
  Calibration calibration;
  calibration.capacity_qps =
      static_cast<double>(r.overload.completed) / params.measure;
  calibration.service_p50 = r.overload.latency_percentile(50.0);
  GUESS_CHECK_MSG(calibration.capacity_qps > 0.0,
                  "calibration produced zero throughput in " << env.name);
  return calibration;
}

struct CellMetrics {
  double offered = 0.0;
  OverloadStats stats;
  double duration = 0.0;

  double p50() const { return stats.latency_percentile(50.0); }
  double p95() const { return stats.latency_percentile(95.0); }
  double p99() const { return stats.latency_percentile(99.0); }
  double p999() const { return stats.latency_percentile(99.9); }
  double goodput() const { return stats.goodput(duration); }
  double violation_rate() const { return stats.slo_violation_rate(); }
};

using Matrix =
    std::map<std::string, std::map<std::string, std::map<std::string,
                                                         CellMetrics>>>;

std::string multiple_key(double multiple) {
  std::ostringstream key;
  key << multiple << "x";
  return key.str();
}

// --- output ----------------------------------------------------------------

void print_tables(const Matrix& matrix, double slo) {
  for (const Environment& env : environments()) {
    TablePrinter table({"policy", "load", "offered", "arrivals", "rejected",
                        "shed", "p50", "p99", "p99.9", "goodput",
                        "viol%"});
    for (OverloadPolicy policy : policies()) {
      const auto& by_load = matrix.at(env.name).at(overload_policy_name(policy));
      for (double multiple : load_multiples()) {
        const CellMetrics& cell = by_load.at(multiple_key(multiple));
        table.add_row({overload_policy_name(policy), multiple_key(multiple),
                       cell.offered,
                       static_cast<std::int64_t>(cell.stats.arrivals),
                       static_cast<std::int64_t>(cell.stats.rejected),
                       static_cast<std::int64_t>(cell.stats.shed), cell.p50(),
                       cell.p99(), cell.p999(), cell.goodput(),
                       cell.violation_rate() * 100.0});
      }
    }
    std::ostringstream title;
    title << "environment: " << env.name << " (slo=" << slo << "s)";
    table.print(std::cout, title.str());
  }
}

bench::Report report_of(const Matrix& matrix,
                        const std::map<std::string, Calibration>& capacities,
                        const BenchParams& params) {
  bench::Report report;
  bench::Report& config = report.object("config");
  config.set("network_size", params.n);
  config.set("warmup", bench::fixed(params.warmup, 0));
  config.set("measure", bench::fixed(params.measure, 0));
  config.set("slo", bench::fixed(params.slo, 1));
  config.set("seed", params.seed);
  bench::Report& capacity = report.object("capacity_qps");
  for (const Environment& env : environments()) {
    capacity.set(env.name,
                 bench::fixed(capacities.at(env.name).capacity_qps, 3));
  }
  bench::Report& cells = report.object("matrix");
  for (const Environment& env : environments()) {
    for (OverloadPolicy policy : policies()) {
      const std::string name = overload_policy_name(policy);
      bench::Report& row = cells.object(env.name).object(name);
      for (double multiple : load_multiples()) {
        const CellMetrics& cell =
            matrix.at(env.name).at(name).at(multiple_key(multiple));
        bench::Report& out = row.object(multiple_key(multiple));
        out.set("offered_qps", bench::fixed(cell.offered, 3));
        out.set("arrivals", cell.stats.arrivals);
        out.set("admitted", cell.stats.admitted);
        out.set("rejected", cell.stats.rejected);
        out.set("shed", cell.stats.shed);
        out.set("completed", cell.stats.completed);
        out.set("abandoned", cell.stats.abandoned);
        out.set("open_at_close", cell.stats.open_at_close);
        out.set("p50", bench::fixed(cell.p50(), 4));
        out.set("p95", bench::fixed(cell.p95(), 4));
        out.set("p99", bench::fixed(cell.p99(), 4));
        out.set("p999", bench::fixed(cell.p999(), 4));
        out.set("goodput", bench::fixed(cell.goodput(), 4));
        out.set("violation_rate", bench::fixed(cell.violation_rate(), 4));
      }
    }
  }
  return report;
}

// --- design gate -----------------------------------------------------------

struct GateResult {
  bool baseline_degrades = false;
  std::vector<std::string> holding_policies;
};

// A fraction of queries violate the SLO even unloaded (unsatisfied queries
// count as violations), so "degrades" and "holds" are both measured against
// the light-load operating point — the none/0.5× cell:
//   * the baseline degrades when its 2× violation rate rises at least
//     --degrade-margin above the light-load rate;
//   * a policy holds when its 2× violation rate stays within --hold-margin
//     of the light-load rate AND its goodput at 2× offered is at least the
//     light-load goodput (scaled by 1 - --epsilon).
GateResult evaluate_gate(const Matrix& matrix, const std::string& env,
                         double degrade_margin, double hold_margin,
                         double epsilon) {
  GateResult gate;
  const CellMetrics& light =
      matrix.at(env).at("none").at(multiple_key(0.5));
  const CellMetrics& none =
      matrix.at(env).at("none").at(multiple_key(2.0));
  gate.baseline_degrades =
      none.violation_rate() >= light.violation_rate() + degrade_margin;
  for (OverloadPolicy policy : policies()) {
    if (policy == OverloadPolicy::kNone) continue;
    const CellMetrics& cell =
        matrix.at(env).at(overload_policy_name(policy)).at(multiple_key(2.0));
    bool tail_held =
        cell.violation_rate() <= light.violation_rate() + hold_margin;
    bool goodput_held = cell.goodput() >= light.goodput() * (1.0 - epsilon);
    if (tail_held && goodput_held) {
      gate.holding_policies.push_back(overload_policy_name(policy));
    }
  }
  return gate;
}

}  // namespace
}  // namespace guess

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  BenchParams params;
  params.n = static_cast<std::size_t>(
      flags.get_int("n", flags.full() ? 1000 : 250));
  params.warmup = flags.get_double("warmup", 150.0);
  params.measure = flags.get_double("measure", flags.full() ? 900.0 : 300.0);
  params.slo = flags.slo_ms() / 1000.0;
  params.seed = flags.seed();
  const double probe_qps = flags.get_double("calibration-qps", 50.0);
  const double degrade_margin = flags.get_double("degrade-margin", 0.10);
  const double hold_margin = flags.get_double("hold-margin", 0.05);
  const double epsilon = flags.get_double("epsilon", 0.10);
  const bench::ReportFiles files(flags, "BENCH_overload.json");

  std::cout << "# Overload matrix — n=" << params.n << " warmup="
            << params.warmup << " measure=" << params.measure << " slo="
            << params.slo << "s seed=" << params.seed << "\n\n";

  std::map<std::string, Calibration> capacities;
  for (const Environment& env : environments()) {
    capacities[env.name] = calibrate(env, params, probe_qps);
    std::cout << "capacity[" << env.name << "] = " << std::fixed
              << std::setprecision(2) << capacities[env.name].capacity_qps
              << " q/s (service p50 "
              << capacities[env.name].service_p50 << "s)\n";
  }
  std::cout << "\n";

  Matrix matrix;
  for (const Environment& env : environments()) {
    for (OverloadPolicy policy : policies()) {
      for (double multiple : load_multiples()) {
        double offered = multiple * capacities[env.name].capacity_qps;
        CellMetrics cell;
        cell.offered = offered;
        cell.duration = params.measure;
        search::SearchResults r = search::run_search(cell_config(
            env, policy, offered, params, capacities[env.name]));
        cell.stats = r.overload;
        matrix[env.name][overload_policy_name(policy)]
              [multiple_key(multiple)] = cell;
      }
    }
  }

  print_tables(matrix, params.slo);
  bool check_ok = files.finish(report_of(matrix, capacities, params));

  // Design gate: somewhere, uncontrolled 2× load must hurt and a policy
  // must fix it.
  bool gate_ok = false;
  for (const Environment& env : environments()) {
    GateResult gate = evaluate_gate(matrix, env.name, degrade_margin,
                                    hold_margin, epsilon);
    std::cout << "gate[" << env.name << "]: baseline at 2x "
              << (gate.baseline_degrades ? "degrades" : "holds (no overload)")
              << "; holding policies:";
    if (gate.holding_policies.empty()) {
      std::cout << " none";
    } else {
      for (const std::string& name : gate.holding_policies) {
        std::cout << " " << name;
      }
    }
    std::cout << "\n";
    if (gate.baseline_degrades && !gate.holding_policies.empty()) {
      gate_ok = true;
    }
  }
  if (!gate_ok) {
    std::cout << "DESIGN GATE FAILED: no environment shows the no-control "
                 "baseline degrading at 2x capacity while a policy holds "
                 "tail latency and goodput\n";
    return 1;
  }
  return check_ok ? 0 : 1;
}
