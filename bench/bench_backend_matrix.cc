// Head-to-head backend matrix (DESIGN.md §12): every registered search
// backend through the one run_search() code path, across the same workload
// columns — static membership, paper churn, lossy transport, and a
// mid-measurement fault burst — reporting success rate, mean/median/p95
// probes per query, and bytes-on-wire per query under the shared wire
// model (§12.3).
//
// Results are printed as one table per column and written to
// BENCH_backends.json (override with --out=...). Two gates make the bench
// a CI check rather than a report:
//   * the design gate: gossip must beat flooding on bytes-on-wire per query
//     at equal-or-better success rate (within --epsilon) in at least one
//     column — the reason the gossip backend exists;
//   * the regression gate (--check=<baseline.json>): every cell and the
//     config must equal a previously checked-in baseline exactly
//     (bench_report.h); the runs are deterministic.
// Cells whose backend rejects a column's fault actions (the ported silos
// predate the FaultHost interface) are reported as unsupported, not failed.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "faults/scenario.h"
#include "search/backend.h"

namespace guess {
namespace {

struct Column {
  std::string name;
  double lifespan_multiplier = 1.0;
  double loss = 0.0;
  bool fault_burst = false;
};

std::vector<Column> columns() {
  return {
      {"static", 500.0, 0.0, false},  // membership frozen in place
      {"churn", 1.0, 0.0, false},     // the paper's lifetime distribution
      {"loss", 1.0, 0.05, false},     // churn + 5% i.i.d. message loss
      {"burst", 1.0, 0.0, true},      // churn + mass kill, later mass join
  };
}

struct Cell {
  bool supported = false;
  search::SearchResults results;
};

SimulationConfig cell_config(SearchBackendId backend, const Column& column,
                             std::size_t n, double warmup, double measure,
                             std::uint64_t seed) {
  SystemParams system;
  system.network_size = n;
  system.lifespan_multiplier = column.lifespan_multiplier;
  auto config = SimulationConfig()
                    .system(system)
                    .backend(backend)
                    .seed(seed)
                    .warmup(warmup)
                    .measure(measure);
  if (column.loss > 0.0) {
    config.transport(TransportParams::lossy(column.loss));
  }
  if (column.fault_burst) {
    // Kill 30% a third into the window, replace them two thirds in: the
    // recovery shape matters as much as the dip.
    std::ostringstream spec;
    spec << "at " << warmup + measure / 3.0 << " kill 0.3\n"
         << "at " << warmup + 2.0 * measure / 3.0 << " join "
         << static_cast<std::size_t>(0.3 * static_cast<double>(n));
    config.scenario(faults::Scenario::parse(spec.str()));
  }
  return config;
}

Cell run_cell(SearchBackendId backend, const Column& column, std::size_t n,
              double warmup, double measure, std::uint64_t seed) {
  Cell cell;
  try {
    cell.results =
        search::run_search(cell_config(backend, column, n, warmup, measure,
                                       seed));
    cell.supported = true;
  } catch (const CheckError&) {
    // The backend rejected a fault action the column injects (the silo
    // predates FaultHost); the matrix reports the hole honestly.
    cell.supported = false;
  }
  return cell;
}

using Matrix = std::map<std::string, std::map<std::string, Cell>>;

// --- output ----------------------------------------------------------------

void print_tables(const Matrix& matrix) {
  for (const Column& column : columns()) {
    TablePrinter table({"backend", "queries", "success", "probes/q", "p50",
                        "p95", "bytes/q", "maint B/q", "deaths"});
    for (const auto& [backend, cells] : matrix) {
      const Cell& cell = cells.at(column.name);
      if (!cell.supported) {
        table.add_row({backend, std::string("-"), std::string("n/a"),
                       std::string("-"), std::string("-"), std::string("-"),
                       std::string("-"), std::string("-"), std::string("-")});
        continue;
      }
      const search::SearchResults& r = cell.results;
      double maintenance_per_query =
          r.queries_completed == 0
              ? 0.0
              : static_cast<double>(r.maintenance_bytes) /
                    static_cast<double>(r.queries_completed);
      table.add_row({backend,
                     static_cast<std::int64_t>(r.queries_completed),
                     r.success_rate(), r.probes_per_query(),
                     r.probes_percentile(50.0), r.probes_percentile(95.0),
                     r.bytes_per_query(), maintenance_per_query,
                     static_cast<std::int64_t>(r.deaths)});
    }
    table.print(std::cout, "column: " + column.name);
  }
}

bench::Report report_of(const Matrix& matrix, std::size_t n, double warmup,
                        double measure, std::uint64_t seed,
                        const std::vector<std::string>& winning_columns) {
  bench::Report report;
  bench::Report& config = report.object("config");
  config.set("network_size", n);
  config.set("warmup", bench::fixed(warmup, 0));
  config.set("measure", bench::fixed(measure, 0));
  config.set("seed", seed);
  bench::Report& cells_out = report.object("matrix");
  for (const auto& [backend, cells] : matrix) {
    bench::Report& row = cells_out.object(backend);
    for (const Column& column : columns()) {
      const Cell& cell = cells.at(column.name);
      bench::Report& out = row.object(column.name);
      out.set("supported", cell.supported);
      if (!cell.supported) continue;
      const search::SearchResults& r = cell.results;
      out.set("queries_completed", r.queries_completed);
      out.set("success_rate", bench::fixed(r.success_rate(), 4));
      out.set("probes_per_query", bench::fixed(r.probes_per_query(), 2));
      out.set("probes_p50", bench::fixed(r.probes_percentile(50.0), 2));
      out.set("probes_p95", bench::fixed(r.probes_percentile(95.0), 2));
      out.set("bytes_per_query", bench::fixed(r.bytes_per_query(), 1));
      out.set("query_bytes", r.query_bytes);
      out.set("maintenance_bytes", r.maintenance_bytes);
      out.set("deaths", r.deaths);
    }
  }
  report.set("gossip_beats_flood_columns", bench::quoted(winning_columns));
  return report;
}

// --- design gate -----------------------------------------------------------

std::vector<std::string> gossip_wins(const Matrix& matrix, double epsilon) {
  std::vector<std::string> wins;
  for (const Column& column : columns()) {
    const Cell& gossip = matrix.at("gossip").at(column.name);
    const Cell& flood = matrix.at("flood").at(column.name);
    if (!gossip.supported || !flood.supported) continue;
    bool equal_success = gossip.results.success_rate() >=
                         flood.results.success_rate() - epsilon;
    bool cheaper =
        gossip.results.bytes_per_query() < flood.results.bytes_per_query();
    if (equal_success && cheaper) wins.push_back(column.name);
  }
  return wins;
}

}  // namespace
}  // namespace guess

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("n", flags.full() ? 1000 : 500));
  const double warmup = flags.get_double("warmup", 300.0);
  const double measure =
      flags.get_double("measure", flags.full() ? 2400.0 : 900.0);
  const std::uint64_t seed = flags.seed();
  const double epsilon = flags.get_double("epsilon", 0.02);
  const bench::ReportFiles files(flags, "BENCH_backends.json");

  std::cout << "# Backend matrix — n=" << n << " warmup=" << warmup
            << " measure=" << measure << " seed=" << seed << "\n\n";

  Matrix matrix;
  for (SearchBackendId id : search::registered_backends()) {
    for (const Column& column : columns()) {
      matrix[backend_name(id)][column.name] =
          run_cell(id, column, n, warmup, measure, seed);
    }
  }

  print_tables(matrix);

  std::vector<std::string> wins = gossip_wins(matrix, epsilon);
  std::cout << "gossip beats flood (bytes/query at equal success, epsilon="
            << epsilon << "): ";
  if (wins.empty()) {
    std::cout << "NOWHERE\n";
  } else {
    for (std::size_t i = 0; i < wins.size(); ++i) {
      std::cout << wins[i] << (i + 1 < wins.size() ? ", " : "\n");
    }
  }

  bool check_ok =
      files.finish(report_of(matrix, n, warmup, measure, seed, wins));

  if (wins.empty()) {
    std::cout << "DESIGN GATE FAILED: the gossip backend never beat "
                 "flooding on bytes-on-wire at equal success rate\n";
    return 1;
  }
  return check_ok ? 0 : 1;
}
