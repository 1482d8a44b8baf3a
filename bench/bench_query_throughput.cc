// Query-path throughput harness: measures end-to-end GUESS simulation
// throughput (queries/sec and probes/sec of wall-clock time) at several
// network sizes, plus micro-benchmarks of the query-path data structures
// with the legacy (pre-dense-table) implementations embedded as the
// before/after baseline — the same structure bench_event_throughput uses
// for the event core.
//
// Results are printed as tables and written to BENCH_queries.json
// (override with --out=...). --full adds the N=50k point quoted in
// README.md; --check=<baseline.json> compares the measured end-to-end
// queries/sec against a checked-in baseline and exits nonzero on a
// regression beyond --tolerance (default 0.30) — the CI benchmark-smoke
// gate. The baseline is read before anything runs, and --out naming the
// same file as --check is rejected, so a check never rewrites its baseline.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/epoch_set.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "guess/link_cache.h"
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
  auto start = std::chrono::steady_clock::now();
  search::SearchResults run =
      search::run_search(config_for(network, measure, seed, scheduler));
  auto stop = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(stop - start).count();
  out.events = run.events_fired;
  out.results = *run.extra_as<SimulationResults>();
  return out;
}

// --- Micro: query-path data structures, legacy vs dense -------------------
//
// Each micro pits the pre-PR structure (embedded here as the before
// baseline, the way bench_event_throughput embeds the node-based event
// queue) against its replacement on the operation mix the query hot path
// actually performs. The cache-selection micro needs no embedded copy: an
// unconfigured LinkCache *is* the legacy full-rescan path, bitwise.

struct Micro {
  std::string name;
  double legacy_ops_per_sec = 0.0;
  double dense_ops_per_sec = 0.0;
  double speedup() const {
    return legacy_ops_per_sec > 0.0 ? dense_ops_per_sec / legacy_ops_per_sec
                                    : 0.0;
  }
};

template <typename Fn>
double ops_per_sec(std::uint64_t ops, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto stop = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(stop - start).count();
  return secs > 0.0 ? static_cast<double>(ops) / secs : 0.0;
}

// Per-query dedup: fill/probe/discard cycles, the seen-set lifecycle of one
// query execution. Legacy: an unordered_set of 64-bit ids cleared per query.
// Dense: the EpochSet on 32-bit keys, as QueryExecution passes them.
Micro micro_dedup() {
  constexpr int kQueries = 60000;
  constexpr std::uint64_t kCandidates = 96;  // cache + pong fan-in
  std::uint64_t sink = 0;
  Micro m{"dedup (per-query seen-set)"};
  {
    std::unordered_set<PeerId> seen;
    m.legacy_ops_per_sec =
        ops_per_sec(static_cast<std::uint64_t>(kQueries) * kCandidates, [&] {
          std::uint64_t id = 1;
          for (int q = 0; q < kQueries; ++q) {
            seen.clear();
            for (std::uint64_t i = 0; i < kCandidates; ++i) {
              id = id * 6364136223846793005ULL + 1442695040888963407ULL;
              sink += seen.insert(id >> 40).second ? 1 : 0;
            }
          }
        });
  }
  {
    EpochSet seen;
    seen.reserve(kCandidates);
    m.dense_ops_per_sec =
        ops_per_sec(static_cast<std::uint64_t>(kQueries) * kCandidates, [&] {
          std::uint64_t id = 1;
          for (int q = 0; q < kQueries; ++q) {
            seen.clear();
            for (std::uint64_t i = 0; i < kCandidates; ++i) {
              id = id * 6364136223846793005ULL + 1442695040888963407ULL;
              auto key = static_cast<std::uint32_t>(id >> 40);
              sink += seen.insert(key) ? 1 : 0;
            }
          }
        });
  }
  GUESS_CHECK(sink > 0);
  return m;
}

// Peer registry: id -> peer resolution under churn, the single hottest
// lookup in the simulator. Legacy: unordered_map registry. Dense: the
// id-indexed slot vector (two array indexings), exactly PeerTable's layout.
Micro micro_registry() {
  constexpr std::size_t kPopulation = 10000;
  constexpr std::uint64_t kLookups = 20000000;
  Micro m{"registry (id -> peer lookup)"};
  std::uint64_t sink = 0;
  // Same liveness pattern on both sides: every 5th id dead.
  {
    std::unordered_map<PeerId, std::uint32_t> legacy;
    legacy.reserve(kPopulation);
    for (std::size_t id = 0; id < kPopulation; ++id) {
      if (id % 5 != 0) legacy.emplace(id, static_cast<std::uint32_t>(id));
    }
    m.legacy_ops_per_sec = ops_per_sec(kLookups, [&] {
      std::uint64_t x = 1;
      for (std::uint64_t i = 0; i < kLookups; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        auto it = legacy.find((x >> 33) % kPopulation);
        if (it != legacy.end()) sink += it->second;
      }
    });
  }
  {
    struct IdRef {
      std::uint32_t slot = 0xFFFFFFFFu;
      std::uint32_t generation = 0;
    };
    std::vector<IdRef> id_to_slot(kPopulation);
    std::vector<std::uint32_t> slots(kPopulation);
    for (std::size_t id = 0; id < kPopulation; ++id) {
      if (id % 5 != 0) {
        id_to_slot[id].slot = static_cast<std::uint32_t>(id);
        slots[id] = static_cast<std::uint32_t>(id);
      }
    }
    m.dense_ops_per_sec = ops_per_sec(kLookups, [&] {
      std::uint64_t x = 1;
      for (std::uint64_t i = 0; i < kLookups; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint32_t slot = id_to_slot[(x >> 33) % kPopulation].slot;
        if (slot != 0xFFFFFFFFu) sink += slots[slot];
      }
    });
  }
  GUESS_CHECK(sink > 0);
  return m;
}

// Cache policy selection: the offer + select_top mix every Pong triggers.
// Legacy: the unconfigured LinkCache's full-rescan scoring (kept in-tree as
// the reference path). Dense: the same cache with incremental ScoreIndex
// orderings configured.
Micro micro_selection(bool configure) {
  constexpr int kRounds = 40000;
  constexpr std::size_t kCapacity = 40;
  LinkCache cache(/*owner=*/0, kCapacity);
  if (configure) {
    cache.configure_indices({Policy::kMR, Policy::kLRU, Policy::kMFS},
                            Replacement::kLR);
  }
  Rng rng(7);
  std::vector<CacheEntry> out;
  std::uint64_t sink = 0;
  double ops = ops_per_sec(kRounds, [&] {
    std::uint64_t x = 1;
    for (int round = 0; round < kRounds; ++round) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      CacheEntry candidate;
      candidate.id = 1 + (x >> 33) % 4096;
      candidate.ts = static_cast<sim::Time>(round % 1000);
      candidate.num_files = static_cast<std::uint32_t>(x % 100);
      candidate.num_res = static_cast<std::uint32_t>(x % 7);
      cache.offer(candidate, Replacement::kLR, rng);
      cache.select_top_into(Policy::kMR, 10, rng, out);
      sink += out.size();
    }
  });
  GUESS_CHECK(sink > 0);
  Micro m{"cache (offer + select_top 10/40)"};
  (configure ? m.dense_ops_per_sec : m.legacy_ops_per_sec) = ops;
  return m;
}

std::vector<Micro> run_micros() {
  std::vector<Micro> micros;
  micros.push_back(micro_dedup());
  micros.push_back(micro_registry());
  Micro selection = micro_selection(/*configure=*/false);
  selection.dense_ops_per_sec =
      micro_selection(/*configure=*/true).dense_ops_per_sec;
  micros.push_back(selection);
  return micros;
}

// --- JSON output ----------------------------------------------------------

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<EndToEnd>& points,
                const std::vector<Micro>& micros, bool identical) {
  std::ofstream out(path);
  GUESS_CHECK_MSG(out.good(), "cannot write " << path);
  out << "{\n";
  out << "  \"workload\": {\"policies\": \"probe=MR pong=MR ping=LRU/MFS "
         "replace=LR\", \"seed\": "
      << seed << "},\n";
  out << "  \"end_to_end\": {\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const EndToEnd& p = points[i];
    out << "    \"n" << p.network << "\": {"
        << "\"measure_seconds\": " << std::fixed << std::setprecision(0)
        << measure_for(p.network) << ", \"wall_seconds\": "
        << std::setprecision(3) << p.wall_seconds
        << ", \"queries_completed\": " << p.results.queries_completed
        << ", \"probes\": " << p.results.probes.total()
        << ", \"events\": " << p.events << ",\n"
        << "      \"queries_per_sec\": " << std::setprecision(1)
        << p.queries_per_sec() << ", \"probes_per_sec\": "
        << p.probes_per_sec() << ", \"events_per_sec\": "
        << p.events_per_sec() << "}" << (i + 1 < points.size() ? "," : "")
        << "\n";
  }
  out << "  },\n";
  out << "  \"micro\": {\n";
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const Micro& m = micros[i];
    out << "    \"" << m.name << "\": {\"legacy_ops_per_sec\": " << std::fixed
        << std::setprecision(0) << m.legacy_ops_per_sec
        << ", \"dense_ops_per_sec\": " << m.dense_ops_per_sec
        << ", \"speedup\": " << std::setprecision(2) << m.speedup() << "}"
        << (i + 1 < micros.size() ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"schedulers_bitwise_identical\": "
      << (identical ? "true" : "false") << "\n";
  out << "}\n";
}

// --- Baseline check (--check=...) -----------------------------------------
//
// Reads "nNNN": {... "queries_per_sec": X ...} pairs out of a previously
// written BENCH_queries.json. The parser only needs to understand this
// file's own output format, so a line/keyword scan is enough.

struct BaselinePoint {
  std::size_t network = 0;
  double queries_per_sec = 0.0;
};

std::vector<BaselinePoint> read_baseline(const std::string& path) {
  std::ifstream in(path);
  GUESS_CHECK_MSG(in.good(), "cannot read baseline " << path);
  std::vector<BaselinePoint> points;
  std::string line;
  std::size_t current_n = 0;
  bool in_end_to_end = false;
  while (std::getline(in, line)) {
    if (line.find("\"end_to_end\"") != std::string::npos) {
      in_end_to_end = true;
      continue;
    }
    if (!in_end_to_end) continue;
    auto npos = line.find("\"n");
    if (npos != std::string::npos) {
      current_n = static_cast<std::size_t>(
          std::strtoull(line.c_str() + npos + 2, nullptr, 10));
    }
    auto qpos = line.find("\"queries_per_sec\": ");
    if (qpos != std::string::npos && current_n != 0) {
      double qps = std::strtod(
          line.c_str() + qpos + std::string("\"queries_per_sec\": ").size(),
          nullptr);
      points.push_back({current_n, qps});
      current_n = 0;
    }
  }
  return points;
}

// True if both paths resolve to one file (or, for a file not yet written,
// to one location).
bool same_file(const std::string& a, const std::string& b) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::equivalent(a, b, ec)) return true;
  return fs::weakly_canonical(fs::absolute(a)) ==
         fs::weakly_canonical(fs::absolute(b));
}

// Returns false (regression) if any network size present in both the
// baseline and the live run lost more than `tolerance` of its queries/sec.
bool check_against_baseline(const std::vector<BaselinePoint>& baseline,
                            const std::vector<EndToEnd>& points,
                            double tolerance) {
  bool ok = true;
  for (const BaselinePoint& b : baseline) {
    for (const EndToEnd& p : points) {
      if (p.network != b.network || b.queries_per_sec <= 0.0) continue;
      double ratio = p.queries_per_sec() / b.queries_per_sec;
      std::cout << "check n=" << p.network << ": " << std::fixed
                << std::setprecision(1) << p.queries_per_sec()
                << " queries/sec vs baseline " << b.queries_per_sec << " ("
                << std::setprecision(2) << ratio << "x)\n";
      if (ratio < 1.0 - tolerance) {
        std::cout << "REGRESSION: n=" << p.network << " lost "
                  << std::setprecision(0) << (1.0 - ratio) * 100.0
                  << "% queries/sec (tolerance "
                  << tolerance * 100.0 << "%)\n";
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace
}  // namespace guess

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  const bool full = flags.full();
  const std::uint64_t seed = flags.seed();
  const std::string out_path = flags.get_string("out", "BENCH_queries.json");
  const std::string check_path = flags.get_string("check", "");
  const double tolerance = flags.get_double("tolerance", 0.30);
  const long long only_n = flags.get_int("n", 0);
  const double measure_override = flags.get_double("measure", 0.0);

  // Read the baseline before anything is written: --out must not be the
  // file --check compares against.
  std::vector<BaselinePoint> baseline;
  if (!check_path.empty()) {
    GUESS_CHECK_MSG(!same_file(out_path, check_path),
                    "--out=" << out_path << " would overwrite the --check "
                             << "baseline " << check_path
                             << "; pass --out=<another file>");
    baseline = read_baseline(check_path);
    GUESS_CHECK_MSG(!baseline.empty(),
                    "no end_to_end points found in " << check_path);
  }

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

  std::vector<Micro> micros = run_micros();
  TablePrinter micro_table(
      {"structure", "legacy Mops/s", "dense Mops/s", "speedup"});
  for (const Micro& m : micros) {
    micro_table.add_row({m.name, m.legacy_ops_per_sec / 1e6,
                         m.dense_ops_per_sec / 1e6, m.speedup()});
  }
  micro_table.print(std::cout,
                    "query-path structures, legacy vs dense (embedded)");

  write_json(out_path, seed, points, micros, true);
  std::cout << "wrote " << out_path << "\n";

  if (!check_path.empty() &&
      !check_against_baseline(baseline, points, tolerance)) {
    return 1;
  }
  return 0;
}
