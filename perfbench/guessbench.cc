// guessbench — one benchmark workload, one simulation, one process.
//
// Runs a named GUESS workload through search::run_search unchanged and
// prints what it cost as one JSON object on stdout. Phases and layer calls
// are timed from outside: a timing decorator is installed over
// make_guess_backend with search::register_backend, so the simulation code
// is the code every other caller runs.
//
//   guessbench --workload=NAME --seed=N --mode=plain|stamped|traced
//              [--spans=FILE]
//
//   plain    run_search with the stock registry: the reference results and
//            the untraced wall time the tracing overhead is measured against;
//   stamped  the decorator stamps the phase boundaries only (a fixed handful
//            of clock reads): the end-to-end metrics;
//   traced   the decorator also records a span for every SearchBackend call,
//            then the layer replays run under their own root span; the spans
//            are kept in memory and written to --spans at exit.
//
// Derived metrics (medians, self times, percentiles, shares) are computed
// by run.py from the raw stamps, counts and spans printed here.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "content/content_model.h"
#include "faults/scenario.h"
#include "guess/config.h"
#include "guess/link_cache.h"
#include "guess/metrics.h"
#include "search/adapters.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::bench {
namespace {

// --- Workloads --------------------------------------------------------------

ProtocolParams indexed_policies() {
  // The deterministic policy mix of bench_query_throughput: every selection
  // and the retention policy run through the link cache's ScoreIndex.
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.ping_probe = Policy::kLRU;
  protocol.ping_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLR;
  return protocol;
}

SimulationConfig workload_config(const std::string& name,
                                 std::uint64_t seed) {
  SystemParams system;
  if (name == "guess-steady") {
    system.network_size = 10000;
    return SimulationConfig()
        .system(system)
        .protocol(indexed_policies())
        .seed(seed)
        .warmup(150.0)
        .measure(300.0);
  }
  if (name == "guess-large") {
    system.network_size = 50000;
    ProtocolParams protocol = indexed_policies();
    protocol.max_probes_per_query = 100;
    return SimulationConfig()
        .system(system)
        .protocol(protocol)
        .seed(seed)
        .warmup(15.0)
        .measure(45.0);
  }
  if (name == "guess-open-faults") {
    system.network_size = 10000;
    TransportParams transport = TransportParams::lossy(0.05);
    transport.max_retries = 1;
    OverloadParams overload;
    overload.policy = OverloadPolicy::kAdmit;
    overload.max_in_flight = 1024;
    return SimulationConfig()
        .system(system)
        .transport(transport)
        .seed(seed)
        .warmup(300.0)
        .measure(1500.0)
        .arrival(sim::ArrivalMode::kOpen)
        .offered_qps(4.0)
        .overload(overload)
        .metrics_interval(60.0)
        .scenario(
            faults::Scenario::parse("at 600 kill 0.3; at 1200 join 3000"));
  }
  GUESS_CHECK_MSG(false, "unknown workload '" << name << "'");
  return SimulationConfig();
}

// --- Clock and process memory -----------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A "Vm*" line of /proc/self/status, in bytes (0 if absent).
std::uint64_t proc_status_bytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::stoull(line.substr(key_len + 1)) * 1024;
    }
  }
  return 0;
}

// --- Spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t key = -1;  ///< arrival ordinal for start_query, else -1
};

/// Span store shared by the bench and the decorator. Phase spans (run,
/// factory, bootstrap, warmup, begin_measurement, measure, collect) are
/// always recorded; per-call spans only when tracing.
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {
    spans_.reserve(tracing ? (1u << 16) : 16u);
  }

  bool tracing() const { return tracing_; }

  std::int32_t open(const char* name, std::int32_t parent,
                    std::int64_t key = -1) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.key = key;
    span.start_ns = now_ns();
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Phase bookkeeping filled in by the decorator.
  std::int32_t run_span = -1;
  std::int32_t phase_span = -1;  ///< warmup or measure: parent of call spans
  std::uint64_t events_begin = 0;
  std::uint64_t events_collect = 0;
  std::size_t pending_begin = 0;    ///< queue depth when the window opens
  std::size_t pending_collect = 0;  ///< and when it closes
  std::uint64_t rss_setup_bytes = 0;
  std::uint64_t open_at_begin = 0;
  std::int64_t start_query_calls = 0;

 private:
  bool tracing_;
  std::vector<Span> spans_;
};

Recorder* g_recorder = nullptr;  // the registry takes a plain function pointer

// --- The timing decorator ---------------------------------------------------

class TimedBackend final : public search::SearchBackend {
 public:
  TimedBackend(std::unique_ptr<search::SearchBackend> inner,
               sim::Simulator& simulator, Recorder& recorder)
      : inner_(std::move(inner)), simulator_(simulator), rec_(recorder) {}

  const char* name() const override { return inner_->name(); }

  void bootstrap() override {
    std::int32_t span = rec_.open("bootstrap", rec_.run_span);
    inner_->bootstrap();
    rec_.close(span);
    rec_.rss_setup_bytes = proc_status_bytes("VmRSS");
    rec_.phase_span = rec_.open("warmup", rec_.run_span);
  }

  void begin_measurement() override {
    rec_.close(rec_.phase_span);
    std::int32_t span = rec_.open("begin_measurement", rec_.run_span);
    inner_->begin_measurement();
    rec_.close(span);
    // Queries already in flight when the window opens: the open-loop
    // identity's carry-over term (admit control never queues, so every open
    // query is inside the backend).
    std::uint64_t open = 0;
    inner_->visit_open_queries([&open](sim::Time) { ++open; });
    rec_.open_at_begin = open;
    rec_.events_begin = simulator_.events_fired();
    rec_.pending_begin = simulator_.pending_events();
    rec_.phase_span = rec_.open("measure", rec_.run_span);
  }

  void start_query(Rng& rng, sim::Time issued) override {
    std::int64_t ordinal = rec_.start_query_calls++;
    call("start_query", [&] { inner_->start_query(rng, issued); }, ordinal);
  }

  void configure_open_loop(QueryObserver* observer) override {
    call("configure_open_loop", [&] { inner_->configure_open_loop(observer); });
  }

  TransportCounters transport_counters() const override {
    return inner_->transport_counters();
  }

  void visit_open_queries(
      const std::function<void(sim::Time)>& visit) const override {
    inner_->visit_open_queries(visit);
  }

  search::SearchResults collect() override {
    rec_.close(rec_.phase_span);
    rec_.events_collect = simulator_.events_fired();
    rec_.pending_collect = simulator_.pending_events();
    std::int32_t span = rec_.open("collect", rec_.run_span);
    search::SearchResults results = inner_->collect();
    rec_.close(span);
    rec_.phase_span = rec_.run_span;
    return results;
  }

  std::size_t live_peers() const override { return inner_->live_peers(); }

  void begin_intervals(sim::Duration width) override {
    call("begin_intervals", [&] { inner_->begin_intervals(width); });
  }
  void sample_interval() override {
    call("sample_interval", [&] { inner_->sample_interval(); });
  }

  void fault_mass_kill(double fraction) override {
    call("fault_mass_kill", [&] { inner_->fault_mass_kill(fraction); });
  }
  void fault_mass_join(std::size_t count) override {
    call("fault_mass_join", [&] { inner_->fault_mass_join(count); });
  }
  void fault_set_partition(int ways) override {
    call("fault_set_partition", [&] { inner_->fault_set_partition(ways); });
  }
  void fault_clear_partition() override {
    call("fault_clear_partition", [&] { inner_->fault_clear_partition(); });
  }
  void fault_set_degradation(double extra_loss,
                             double latency_factor) override {
    call("fault_set_degradation", [&] {
      inner_->fault_set_degradation(extra_loss, latency_factor);
    });
  }
  void fault_clear_degradation() override {
    call("fault_clear_degradation",
         [&] { inner_->fault_clear_degradation(); });
  }
  void fault_set_poisoning(bool active) override {
    call("fault_set_poisoning", [&] { inner_->fault_set_poisoning(active); });
  }
  void fault_start_attack(faults::AttackKind kind, double fraction) override {
    call("fault_start_attack",
         [&] { inner_->fault_start_attack(kind, fraction); });
  }
  void fault_stop_attack(faults::AttackKind kind) override {
    call("fault_stop_attack", [&] { inner_->fault_stop_attack(kind); });
  }

 private:
  /// A per-call span under the current phase when tracing; a plain
  /// forward otherwise.
  template <typename Fn>
  void call(const char* name, Fn&& fn, std::int64_t key = -1) {
    if (!rec_.tracing()) {
      fn();
      return;
    }
    std::int32_t span = rec_.open(name, rec_.phase_span, key);
    fn();
    rec_.close(span);
  }

  std::unique_ptr<search::SearchBackend> inner_;
  sim::Simulator& simulator_;
  Recorder& rec_;
};

std::unique_ptr<search::SearchBackend> make_timed_guess_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  Recorder& rec = *g_recorder;
  std::int32_t span = rec.open("factory", rec.run_span);
  auto inner = search::make_guess_backend(config, simulator, std::move(rng));
  rec.close(span);
  return std::make_unique<TimedBackend>(std::move(inner), simulator, rec);
}

// --- Layer replays ----------------------------------------------------------
//
// Each replay drives one layer outside the simulation, shaped by the
// workload's config and the counts the traced run observed, so its cost per
// operation can be set against the run's phase times.

std::uint64_t g_sink = 0;  // keeps replay results observable

struct ContentReplay {
  double library_s = 0.0;
  double files_per_peer = 0.0;
  double draw_query_ns = 0.0;
};

/// ContentModel construction plus network_size peer libraries: the content
/// share of bootstrap; then query-target draws.
ContentReplay replay_content(const SimulationConfig& config,
                             std::uint64_t seed) {
  ContentReplay out;
  Rng rng(seed ^ 0x3c6ef372fe94f82bull);
  std::size_t peers = config.system().network_size;
  std::uint64_t files = 0;
  std::int64_t start = now_ns();
  content::ContentModel model(config.system().content);
  for (std::size_t i = 0; i < peers; ++i) {
    files += model.sample_peer_library(rng).size();
  }
  out.library_s = static_cast<double>(now_ns() - start) * 1e-9;
  out.files_per_peer = static_cast<double>(files) / static_cast<double>(peers);

  constexpr std::uint64_t kDraws = 1u << 20;
  start = now_ns();
  for (std::uint64_t i = 0; i < kDraws; ++i) g_sink += model.draw_query(rng);
  out.draw_query_ns =
      static_cast<double>(now_ns() - start) / static_cast<double>(kDraws);
  return out;
}

struct CacheReplay {
  double offer_ns = 0.0;
  double select_ns = 0.0;
};

/// Pong-entry offers into full link caches and QueryPong selections, with
/// the workload's cache size, pong size, replacement policy and indexed
/// orderings (configured exactly as GuessNetwork::spawn_peer does).
CacheReplay replay_link_cache(const SimulationConfig& config,
                              std::uint64_t seed) {
  const ProtocolParams& protocol = config.protocol();
  std::size_t population = config.system().network_size;
  std::size_t caches = std::min<std::size_t>(population, 2048);
  Rng rng(seed ^ 0xa54ff53a5f1d36f1ull);
  auto candidate = [&](double now) {
    CacheEntry entry;
    entry.id = static_cast<PeerId>(rng.index(population) + 1);
    entry.ts = now - rng.uniform(0.0, 600.0);
    entry.num_files = static_cast<std::uint32_t>(rng.index(400));
    entry.num_res = static_cast<std::uint32_t>(rng.index(4));
    return entry;
  };
  std::vector<LinkCache> pool;
  pool.reserve(caches);
  for (std::size_t c = 0; c < caches; ++c) {
    pool.emplace_back(static_cast<PeerId>(population + 1 + c),
                      protocol.cache_size);
    LinkCache& cache = pool.back();
    cache.configure_indices(
        {protocol.ping_probe, protocol.ping_pong, protocol.query_pong},
        protocol.cache_replacement);
    while (!cache.full()) {
      CacheEntry entry = candidate(0.0);
      if (!cache.contains(entry.id)) cache.insert_free(entry);
    }
  }

  // Inputs are drawn before the clock starts, so only the cache is timed.
  constexpr std::size_t kOps = 1u << 20;
  std::vector<std::uint32_t> targets(kOps);
  std::vector<CacheEntry> offers(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    targets[i] = static_cast<std::uint32_t>(rng.index(caches));
    offers[i] = candidate(static_cast<double>(i) * 1e-3);
  }
  CacheReplay out;
  std::int64_t start = now_ns();
  for (std::size_t i = 0; i < kOps; ++i) {
    g_sink += pool[targets[i]].offer(offers[i], protocol.cache_replacement,
                                     rng);
  }
  out.offer_ns = static_cast<double>(now_ns() - start) /
                 static_cast<double>(kOps);

  std::vector<CacheEntry> pong;
  pong.reserve(protocol.pong_size);
  start = now_ns();
  for (std::size_t i = 0; i < kOps; ++i) {
    pool[targets[i]].select_top_into(protocol.query_pong, protocol.pong_size,
                                     rng, pong);
    g_sink += pong.size();
  }
  out.select_ns = static_cast<double>(now_ns() - start) /
                  static_cast<double>(kOps);
  return out;
}

/// The event core at the run's queue depth: a simulator holding `depth`
/// no-op events, each of which reschedules one successor (a hold model, so
/// the depth stays constant), with delays spread like the run's: depth
/// events pending over `events_per_sim_s` fired per simulated second.
double replay_event_core(std::size_t depth, double events_per_sim_s,
                         std::uint64_t fire, sim::Scheduler scheduler,
                         std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  double mean_delay = static_cast<double>(depth) /
                      std::max(events_per_sim_s, 1e-9);
  sim::Simulator simulator(scheduler);
  Rng rng(seed ^ 0x510e527fade682d1ull);
  struct Hold {
    sim::Simulator* simulator;
    Rng* rng;
    double mean_delay;
    void operator()() const {
      simulator->after(rng->uniform(0.0, 2.0 * mean_delay), Hold{*this});
    }
  };
  static_assert(sim::Simulator::Callback::stores_inline<Hold>());
  for (std::size_t i = 0; i < depth; ++i) {
    simulator.at(rng.uniform(0.0, 2.0 * mean_delay),
                 Hold{&simulator, &rng, mean_delay});
  }
  // Run in slices of simulated time until `fire` events have fired.
  std::int64_t start = now_ns();
  sim::Time horizon = 0.0;
  double slice = static_cast<double>(std::max<std::uint64_t>(fire / 64, 1)) /
                 std::max(events_per_sim_s, 1e-9);
  while (simulator.events_fired() < fire) {
    horizon += slice;
    simulator.run_until(horizon);
  }
  double elapsed = static_cast<double>(now_ns() - start);
  return elapsed / static_cast<double>(simulator.events_fired());
}

// --- Output -----------------------------------------------------------------

/// Minimal JSON object writer: doubles with 17 significant digits so a
/// parsed value equals the one printed.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& u64(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& i64(const char* key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& raw(const char* key, const std::string& v) {
    os_ << (first_ ? "{" : ", ") << '"' << key << "\": " << v;
    first_ = false;
    return *this;
  }
  std::string done() {
    if (first_) os_ << '{';
    os_ << '}';
    return os_.str();
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

/// FNV-1a over the bit patterns of a sequence of doubles/integers, so whole
/// vectors (probe samples, the interval series) take part in the equality
/// check as one scalar.
class Fnv {
 public:
  template <typename T>
  void add(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ull;
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void add_stat(Json& j, const std::string& prefix, const RunningStat& s) {
  j.u64((prefix + ".count").c_str(), s.count());
  j.num((prefix + ".sum").c_str(), s.sum());
  j.num((prefix + ".mean").c_str(), s.empty() ? 0.0 : s.mean());
  j.num((prefix + ".variance").c_str(), s.count() < 2 ? 0.0 : s.variance());
}

/// Every scalar of the results, plus digests of the vector fields. Two runs
/// are equal iff these objects are equal key for key.
std::string results_json(const search::SearchResults& r) {
  Json j;
  j.str("backend", r.backend);
  j.u64("network_size", r.network_size);
  j.num("measure_duration", r.measure_duration);
  j.u64("queries_completed", r.queries_completed);
  j.u64("queries_satisfied", r.queries_satisfied);
  j.u64("probes", r.probes);
  j.u64("query_messages", r.query_messages);
  j.u64("maintenance_messages", r.maintenance_messages);
  j.u64("query_bytes", r.query_bytes);
  j.u64("maintenance_bytes", r.maintenance_bytes);
  j.u64("deaths", r.deaths);
  add_stat(j, "response_time", r.response_time);
  Fnv samples;
  for (double v : r.probe_samples.values()) samples.add(v);
  j.u64("probe_samples.size", r.probe_samples.size());
  j.str("probe_samples.fnv", samples.hex());
  Fnv series;
  for (const IntervalSample& s : r.interval_series) {
    series.add(s.start);
    series.add(s.end);
    series.add(s.queries_completed);
    series.add(s.queries_satisfied);
    series.add(s.probes);
    series.add(s.live_peers);
    series.add(s.transport.messages_sent);
    series.add(s.transport.messages_lost);
    series.add(s.transport.timeouts);
    series.add(s.arrivals);
    series.add(s.rejected);
    series.add(s.shed);
    series.add(s.slo_ok);
  }
  j.u64("interval_series.size", r.interval_series.size());
  j.str("interval_series.fnv", series.hex());

  const OverloadStats& o = r.overload;
  j.u64("overload.open_loop", o.open_loop ? 1 : 0);
  j.u64("overload.arrivals", o.arrivals);
  j.u64("overload.admitted", o.admitted);
  j.u64("overload.rejected", o.rejected);
  j.u64("overload.shed", o.shed);
  j.u64("overload.completed", o.completed);
  j.u64("overload.satisfied", o.satisfied);
  j.u64("overload.slo_ok", o.slo_ok);
  j.u64("overload.abandoned", o.abandoned);
  j.u64("overload.open_at_close", o.open_at_close);
  j.u64("overload.latency.count", o.latency.count());
  Fnv latency;
  for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
    latency.add(o.latency.bucket_count(b));
  }
  j.str("overload.latency.fnv", latency.hex());

  const SimulationResults* g = r.extra_as<SimulationResults>();
  GUESS_CHECK_MSG(g != nullptr, "GUESS results missing from the extra slot");
  j.u64("guess.queries_completed", g->queries_completed);
  j.u64("guess.queries_satisfied", g->queries_satisfied);
  j.u64("guess.probes.good", g->probes.good);
  j.u64("guess.probes.dead", g->probes.dead);
  j.u64("guess.probes.refused", g->probes.refused);
  j.u64("guess.pings_sent", g->pings_sent);
  j.u64("guess.pings_to_dead", g->pings_to_dead);
  j.u64("guess.deaths", g->deaths);
  j.u64("guess.queries_stalled_out", g->queries_stalled_out);
  j.num("guess.cache_health.fraction_live", g->cache_health.fraction_live);
  j.num("guess.cache_health.absolute_live", g->cache_health.absolute_live);
  j.num("guess.cache_health.entries", g->cache_health.entries);
  j.u64("guess.cache_health.samples", g->cache_health.samples);
  add_stat(j, "guess.query_cache_population", g->query_cache_population);
  j.u64("guess.transport.messages_sent", g->transport.messages_sent);
  j.u64("guess.transport.messages_lost", g->transport.messages_lost);
  j.u64("guess.transport.timeouts", g->transport.timeouts);
  j.u64("guess.transport.retransmits", g->transport.retransmits);
  j.u64("guess.transport.late_replies", g->transport.late_replies);
  j.u64("guess.transport.exchanges_failed", g->transport.exchanges_failed);
  Fnv loads;
  for (double v : g->peer_loads.values()) loads.add(v);
  j.str("guess.peer_loads.fnv", loads.hex());
  return j.done();
}

std::string spans_json(const std::vector<Span>& spans, std::int64_t origin) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << (s.start_ns - origin)
       << ", \"end_ns\": " << (s.end_ns - origin)
       << ", \"parent\": " << s.parent << ", \"key\": " << s.key << "}";
  }
  os << "\n]\n";
  return os.str();
}

std::string arg_value(int argc, char** argv, const std::string& key,
                      const std::string& fallback) {
  std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

int run(int argc, char** argv) {
  std::string workload = arg_value(argc, argv, "workload", "");
  std::uint64_t seed = std::stoull(arg_value(argc, argv, "seed", "1"));
  std::string mode = arg_value(argc, argv, "mode", "stamped");
  std::string spans_path = arg_value(argc, argv, "spans", "");
  GUESS_CHECK_MSG(mode == "plain" || mode == "stamped" || mode == "traced",
                  "unknown --mode '" << mode << "'");
  SimulationConfig config = workload_config(workload, seed);

  Recorder recorder(mode == "traced");
  g_recorder = &recorder;
  if (mode != "plain") {
    search::register_backend(SearchBackendId::kGuess,
                             &make_timed_guess_backend);
  }

  std::int64_t origin = now_ns();
  recorder.run_span = recorder.open("run", -1);
  recorder.phase_span = recorder.run_span;
  search::SearchResults results = search::run_search(config);
  recorder.close(recorder.run_span);
  std::uint64_t hwm_bytes = proc_status_bytes("VmHWM");

  Json out;
  out.str("workload", workload);
  out.u64("seed", seed);
  out.str("mode", mode);
  out.u64("peak_rss_bytes", hwm_bytes);
  out.u64("rss_setup_bytes", recorder.rss_setup_bytes);
  out.u64("events_begin", recorder.events_begin);
  out.u64("events_collect", recorder.events_collect);
  std::size_t pending =
      (recorder.pending_begin + recorder.pending_collect) / 2;
  out.u64("pending_events", pending);
  out.u64("open_at_begin", recorder.open_at_begin);
  out.i64("start_query_calls", recorder.start_query_calls);
  out.u64("open_loop", config.open_loop() ? 1 : 0);

  if (mode == "traced") {
    std::int32_t root = recorder.open("replay", -1);
    std::int32_t span = recorder.open("replay.content", root);
    ContentReplay content = replay_content(config, seed);
    recorder.close(span);
    span = recorder.open("replay.link_cache", root);
    CacheReplay cache = replay_link_cache(config, seed);
    recorder.close(span);
    span = recorder.open("replay.event_core", root);
    std::uint64_t measured = recorder.events_collect - recorder.events_begin;
    double events_per_sim_s =
        static_cast<double>(measured) / config.options().measure;
    double event_ns = replay_event_core(
        pending, events_per_sim_s,
        std::min<std::uint64_t>(measured, 1u << 21),
        config.options().scheduler, seed);
    recorder.close(span);
    recorder.close(root);
    out.num("replay.library_s", content.library_s);
    out.num("replay.files_per_peer", content.files_per_peer);
    out.num("replay.draw_query_ns", content.draw_query_ns);
    out.num("replay.offer_ns", cache.offer_ns);
    out.num("replay.select_ns", cache.select_ns);
    out.num("replay.event_ns", event_ns);
    out.u64("replay.sink", g_sink & 1);
  }
  // Phase spans ride along in every mode; per-call spans only when traced.
  out.raw("spans", spans_json(recorder.spans(), origin));
  out.raw("results", results_json(results));
  std::cout << out.done() << "\n";
  if (!spans_path.empty()) {
    std::ofstream file(spans_path);
    file << spans_json(recorder.spans(), origin);
    GUESS_CHECK_MSG(file.good(), "could not write " << spans_path);
  }
  return 0;
}

}  // namespace
}  // namespace guess::bench

int main(int argc, char** argv) {
  try {
    return guess::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "guessbench: " << e.what() << "\n";
    return 1;
  }
}
