// Minimal --key=value command-line parsing for bench and example binaries.
//
// Every harness accepts the same small vocabulary (--full, --seed=, --seeds=,
// --threads=, --progress, --csv, plus harness-specific overrides); this keeps
// them dependency-free.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace guess {

/// Parsed command line: positional arguments are rejected, flags are
/// `--name`, `--name=value`.
class Flags {
 public:
  /// Throws CheckError on malformed arguments.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Boolean flag: present without value, or =true/=false/=1/=0.
  bool get_bool(const std::string& name, bool fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;

  /// Common harness conventions.
  bool full() const { return get_bool("full", false); }
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(get_int("seed", 42));
  }
  int seeds() const { return static_cast<int>(get_int("seeds", 0)); }

  /// Worker threads for seed sweeps. 0 (the default) = auto: the
  /// GUESS_THREADS environment variable when set, else all hardware threads.
  int threads() const { return static_cast<int>(get_int("threads", 0)); }

  /// Event-queue backend name: "heap" (default) or "calendar". Parsed into
  /// sim::Scheduler by the harness (sim::parse_scheduler).
  std::string scheduler() const { return get_string("scheduler", "heap"); }

  /// Report sweep progress (replications completed / total) to stderr.
  bool progress() const { return get_bool("progress", false); }

  // --- transport fault injection (DESIGN.md §8) ---
  // Defaults mirror guess::TransportParams; the presence of any of these
  // flags switches a harness from the synchronous default to the lossy
  // transport (see has_transport_flags()).

  /// I.i.d. per-message loss probability (--loss=0.05).
  double loss() const { return get_double("loss", 0.0); }
  /// One-way link latency in seconds (--link-latency=0.05).
  double link_latency() const { return get_double("link-latency", 0.05); }
  /// Per-attempt round-trip timeout in seconds (--probe-timeout=2).
  double probe_timeout() const { return get_double("probe-timeout", 2.0); }
  /// Retransmit attempts after the first timeout (--max-retries=2).
  int max_retries() const {
    return static_cast<int>(get_int("max-retries", 0));
  }
  /// Cap on a single retransmit backoff delay in seconds (--max-backoff=30).
  double max_backoff() const { return get_double("max-backoff", 60.0); }
  /// True when any fault-injection flag was given.
  bool has_transport_flags() const {
    return has("loss") || has("link-latency") || has("probe-timeout") ||
           has("max-retries") || has("max-backoff");
  }

  /// Search backend name (--backend=gossip): one of guess, flood,
  /// iterative, onehop, gossip. Parsed by guess::parse_backend.
  std::string backend() const { return get_string("backend", "guess"); }

  // --- fault scenarios (DESIGN.md §9) ---

  /// Inline fault-scenario spec (--scenario="at 600 kill 0.3"); empty when
  /// absent. Parsed by faults::Scenario::parse.
  std::string scenario() const { return get_string("scenario", ""); }
  /// Path to a fault-scenario spec file (--scenario-file=faults.txt).
  std::string scenario_file() const {
    return get_string("scenario-file", "");
  }
  /// Width of the time-resolved metrics intervals in seconds
  /// (--interval=60); 0 disables the interval series.
  double metrics_interval() const { return get_double("interval", 0.0); }

  // --- open-loop arrivals + overload control (DESIGN.md §13) ---

  /// Arrival mode (--arrival=open): "closed" (default; the population's own
  /// query clocks) or "open" (a configured-rate arrival process). Parsed by
  /// sim::parse_arrival_mode.
  std::string arrival() const { return get_string("arrival", "closed"); }
  /// Offered load in queries/second for open-loop runs (--offered-qps=50).
  double offered_qps() const { return get_double("offered-qps", 0.0); }
  /// Inter-arrival distribution (--arrival-dist=uniform): "poisson"
  /// (default) or "uniform". Parsed by sim::parse_arrival_dist.
  std::string arrival_dist() const {
    return get_string("arrival-dist", "poisson");
  }
  /// Overload policy (--overload-policy=admit): one of none, admit, shed.
  /// Parsed by guess::parse_overload_policy.
  std::string overload_policy() const {
    return get_string("overload-policy", "none");
  }
  /// Latency SLO in milliseconds (--slo-ms=10000); queries satisfied within
  /// it count toward goodput.
  double slo_ms() const { return get_double("slo-ms", 10000.0); }

 private:
  std::optional<std::string> raw(const std::string& name) const;
  std::map<std::string, std::string> values_;
};

}  // namespace guess
