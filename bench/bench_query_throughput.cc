// Query-path throughput harness: measures end-to-end GUESS simulation
// throughput (queries/sec and probes/sec of wall-clock time) at several
// network sizes. The query-path data structures have their
// micro-benchmarks in bench_micro.
//
// Results are printed as a table and written to BENCH_queries.json
// (override with --out=...). --full adds the N=50k point quoted in
// README.md; --check=<baseline.json> is the CI benchmark-smoke gate
// (bench_report.h): every count and the measure window must equal the
// baseline's at each network size both runs have, and queries/sec must
// reach (1 - --tolerance) of the baseline's (default 0.30).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/flags.h"
#include "common/table.h"
#include "search/backend.h"

namespace guess {
namespace {

// --- End-to-end: a churn-heavy, deterministic-policy GUESS run ------------
//
// The workload is frozen: MR/MR query policies with LR replacement and
// LRU/MFS maintenance policies (every policy deterministic, exercising the
// incremental score index), default churn and content. Simulated duration
// scales down as N grows so every point costs a few wall-seconds.

struct EndToEnd {
  std::size_t network = 0;
  sim::Duration measure = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  SimulationResults results;

  double queries_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(results.queries_completed) / wall_seconds
               : 0.0;
  }
  double probes_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(results.probes.total()) / wall_seconds
               : 0.0;
  }
  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

sim::Duration measure_for(std::size_t network) {
  if (network >= 50000) return 60.0;
  if (network >= 10000) return 300.0;
  return 1200.0;
}

SimulationConfig config_for(std::size_t network, sim::Duration measure,
                            std::uint64_t seed, sim::Scheduler scheduler) {
  SystemParams system;
  system.network_size = network;
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.ping_probe = Policy::kLRU;
  protocol.ping_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLR;
  return SimulationConfig()
      .system(system)
      .protocol(protocol)
      .seed(seed)
      .warmup(measure / 4.0)
      .measure(measure)
      .scheduler(scheduler);
}

EndToEnd run_end_to_end(std::size_t network, sim::Duration measure,
                        std::uint64_t seed, sim::Scheduler scheduler) {
  EndToEnd out;
  out.network = network;
  out.measure = measure;
  auto start = std::chrono::steady_clock::now();
  search::SearchResults run =
      search::run_search(config_for(network, measure, seed, scheduler));
  auto stop = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(stop - start).count();
  out.events = run.events_fired;
  out.results = *run.extra_as<SimulationResults>();
  return out;
}

bench::Report report_of(std::uint64_t seed,
                        const std::vector<EndToEnd>& points) {
  bench::Report report;
  bench::Report& workload = report.object("workload");
  workload.set("policies",
               bench::quoted("probe=MR pong=MR ping=LRU/MFS replace=LR"));
  workload.set("seed", seed);
  bench::Report& end_to_end = report.object("end_to_end");
  for (const EndToEnd& p : points) {
    bench::Report& out =
        end_to_end.object(std::string("n").append(std::to_string(p.network)));
    out.set("measure_seconds", bench::fixed(p.measure, 0));
    out.set("wall_seconds", bench::timing(p.wall_seconds, 3));
    out.set("queries_completed", p.results.queries_completed);
    out.set("probes", p.results.probes.total());
    out.set("events", p.events);
    out.set("queries_per_sec", bench::timing(p.queries_per_sec(), 1));
    out.set("probes_per_sec", bench::timing(p.probes_per_sec(), 1));
    out.set("events_per_sec", bench::timing(p.events_per_sec(), 1));
  }
  // Reached only when the identity check in main() holds.
  report.set("schedulers_bitwise_identical", true);
  return report;
}

}  // namespace
}  // namespace guess

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  const bool full = flags.full();
  const std::uint64_t seed = flags.seed();
  const bench::ReportFiles files(flags, "BENCH_queries.json");
  const double tolerance = flags.get_double("tolerance", 0.30);
  const long long only_n = flags.get_int("n", 0);
  const double measure_override = flags.get_double("measure", 0.0);

  std::vector<std::size_t> sizes;
  if (only_n > 0) {
    sizes.push_back(static_cast<std::size_t>(only_n));
  } else {
    sizes = {1000, 10000};
    if (full) sizes.push_back(50000);
  }

  std::cout << "# Query-path throughput — MR/MR + LR, LRU/MFS maintenance "
               "(seed="
            << seed << ")\n";

  // Cross-scheduler identity gate at the smallest size: the dense table and
  // incremental index must not perturb the heap/calendar equivalence.
  {
    std::size_t n = sizes.front();
    sim::Duration m = std::min(measure_for(n),
                               measure_override > 0.0 ? measure_override
                                                      : measure_for(n));
    auto heap = run_end_to_end(n, m, seed, sim::Scheduler::kHeap);
    auto calendar = run_end_to_end(n, m, seed, sim::Scheduler::kCalendar);
    bool identical =
        heap.results.queries_completed ==
            calendar.results.queries_completed &&
        heap.results.queries_satisfied ==
            calendar.results.queries_satisfied &&
        heap.results.probes.good == calendar.results.probes.good &&
        heap.results.deaths == calendar.results.deaths;
    std::cout << "schedulers bitwise identical (n=" << n
              << "): " << (identical ? "yes" : "NO — BUG") << "\n\n";
    if (!identical) return 1;
  }

  std::vector<EndToEnd> points;
  for (std::size_t n : sizes) {
    sim::Duration m =
        measure_override > 0.0 ? measure_override : measure_for(n);
    points.push_back(run_end_to_end(n, m, seed, sim::Scheduler::kHeap));
  }

  TablePrinter table(
      {"network", "wall s", "queries/sec", "probes/sec", "events/sec"});
  for (const EndToEnd& p : points) {
    table.add_row({static_cast<std::int64_t>(p.network), p.wall_seconds,
                   static_cast<std::int64_t>(p.queries_per_sec()),
                   static_cast<std::int64_t>(p.probes_per_sec()),
                   static_cast<std::int64_t>(p.events_per_sec())});
  }
  table.print(std::cout, "end-to-end GUESS simulation (heap scheduler)");

  return files.finish(report_of(seed, points),
                      {{"queries_per_sec", 1.0 - tolerance}})
             ? 0
             : 1;
}
