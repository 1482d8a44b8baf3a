// Frozen goldens: every field of a SimulationResults, a search::SearchResults
// or an experiments::AveragedResults flattened into named records, written
// as exact text and compared back with literal ==.
//
// File format (tests/testdata/*.golden), one record per line:
//
//   # comment
//   [case-name]
//   field.name v1 v2 ...
//
// Scalars carry one value, sample sets and interval series one value per
// element. A value that is an integer below 2^53 is written in decimal;
// every other double is written as a C99 hex-float (%a). Both forms parse
// back exactly with strtod, so a golden read from disk holds the very bits
// that were recorded. golden_record() defines the field names and order.
#pragma once

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/harness.h"
#include "guess/metrics.h"
#include "guess/overload.h"

#ifndef GUESS_TESTDATA_DIR
#error "GUESS_TESTDATA_DIR must name the tests/testdata directory"
#endif

namespace guess::testsupport {

/// One named field and its values, in recording order.
using GoldenRecord = std::vector<std::pair<std::string, std::vector<double>>>;

/// Named records of one golden file, keyed by case name.
using GoldenFile = std::map<std::string, GoldenRecord>;

class GoldenRecorder {
 public:
  void add(const std::string& name, double value) {
    record_.emplace_back(name, std::vector<double>{value});
  }
  void add(const std::string& name, std::uint64_t value) {
    // Counters are stored as doubles; below 2^53 that is exact.
    EXPECT_LE(value, std::uint64_t{1} << 53) << name;
    add(name, static_cast<double>(value));
  }
  void add(const std::string& name, const std::vector<double>& values) {
    record_.emplace_back(name, values);
  }
  void add(const std::string& name, const RunningStat& s) {
    add(name + ".count", static_cast<std::uint64_t>(s.count()));
    add(name + ".mean", s.mean());
    add(name + ".variance", s.variance());
    add(name + ".min", s.min());
    add(name + ".max", s.max());
    add(name + ".sum", s.sum());
  }
  void add(const std::string& name, const ProbeCounters& p) {
    add(name + ".good", p.good);
    add(name + ".dead", p.dead);
    add(name + ".refused", p.refused);
  }
  void add(const std::string& name, const ClassMetrics& c) {
    add(name + ".queries_completed", c.queries_completed);
    add(name + ".queries_satisfied", c.queries_satisfied);
    add(name + ".probes", c.probes);
    add(name + ".response_time", c.response_time);
  }
  void add(const std::string& name, const TransportCounters& t) {
    add(name + ".messages_sent", t.messages_sent);
    add(name + ".messages_lost", t.messages_lost);
    add(name + ".timeouts", t.timeouts);
    add(name + ".retransmits", t.retransmits);
    add(name + ".late_replies", t.late_replies);
    add(name + ".exchanges_failed", t.exchanges_failed);
  }
  void add(const std::string& name, const AttackStats& a) {
    add(name + ".adversaries_spawned", a.adversaries_spawned);
    add(name + ".adversaries_retired", a.adversaries_retired);
    add(name + ".sybil_respawns", a.sybil_respawns);
    add(name + ".withheld_exchanges", a.withheld_exchanges);
    add(name + ".oversized_pongs", a.oversized_pongs);
    add(name + ".pong_entries_dropped", a.pong_entries_dropped);
    add(name + ".no_reply_charges", a.no_reply_charges);
  }
  void add(const std::string& name, const CacheHealth& h) {
    add(name + ".fraction_live", h.fraction_live);
    add(name + ".absolute_live", h.absolute_live);
    add(name + ".good_entries", h.good_entries);
    add(name + ".entries", h.entries);
    add(name + ".samples", static_cast<std::uint64_t>(h.samples));
  }
  /// Column-wise: one field per IntervalSample member, one value per
  /// interval.
  void add(const std::string& name, const IntervalSeries& series) {
    add(name + ".size", static_cast<std::uint64_t>(series.size()));
    auto column = [&](const std::string& field, auto get) {
      std::vector<double> values;
      for (const IntervalSample& s : series) {
        values.push_back(static_cast<double>(get(s)));
      }
      add(name + "." + field, values);
    };
    column("start", [](const IntervalSample& s) { return s.start; });
    column("end", [](const IntervalSample& s) { return s.end; });
    column("queries_completed",
           [](const IntervalSample& s) { return s.queries_completed; });
    column("queries_satisfied",
           [](const IntervalSample& s) { return s.queries_satisfied; });
    column("probes", [](const IntervalSample& s) { return s.probes; });
    column("live_peers", [](const IntervalSample& s) { return s.live_peers; });
    column("transport.messages_sent",
           [](const IntervalSample& s) { return s.transport.messages_sent; });
    column("transport.messages_lost",
           [](const IntervalSample& s) { return s.transport.messages_lost; });
    column("transport.timeouts",
           [](const IntervalSample& s) { return s.transport.timeouts; });
    column("transport.retransmits",
           [](const IntervalSample& s) { return s.transport.retransmits; });
    column("transport.late_replies",
           [](const IntervalSample& s) { return s.transport.late_replies; });
    column("transport.exchanges_failed", [](const IntervalSample& s) {
      return s.transport.exchanges_failed;
    });
    column("arrivals", [](const IntervalSample& s) { return s.arrivals; });
    column("rejected", [](const IntervalSample& s) { return s.rejected; });
    column("shed", [](const IntervalSample& s) { return s.shed; });
    column("slo_ok", [](const IntervalSample& s) { return s.slo_ok; });
  }

  /// Every OverloadStats field; the latency histogram as its raw bucket
  /// counts.
  void add(const std::string& name, const OverloadStats& o) {
    add(name + ".open_loop", static_cast<std::uint64_t>(o.open_loop));
    add(name + ".policy", static_cast<std::uint64_t>(o.policy));
    add(name + ".offered_qps", o.offered_qps);
    add(name + ".slo", o.slo);
    add(name + ".arrivals", o.arrivals);
    add(name + ".admitted", o.admitted);
    add(name + ".rejected", o.rejected);
    add(name + ".shed", o.shed);
    add(name + ".completed", o.completed);
    add(name + ".satisfied", o.satisfied);
    add(name + ".slo_ok", o.slo_ok);
    add(name + ".abandoned", o.abandoned);
    add(name + ".open_at_close", o.open_at_close);
    std::vector<double> buckets;
    for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
      buckets.push_back(static_cast<double>(o.latency.bucket_count(i)));
    }
    add(name + ".latency", buckets);
  }

  GoldenRecord take() { return std::move(record_); }

 private:
  GoldenRecord record_;
};

/// Every field of SimulationResults.
inline GoldenRecord golden_record(const SimulationResults& r) {
  GoldenRecorder b;
  b.add("queries_completed", r.queries_completed);
  b.add("queries_satisfied", r.queries_satisfied);
  b.add("probes", r.probes);
  b.add("honest", r.honest);
  b.add("selfish", r.selfish);
  b.add("response_time", r.response_time);
  b.add("query_cache_population", r.query_cache_population);
  b.add("query_probes", r.query_probes.values());
  b.add("peer_loads", r.peer_loads.values());
  b.add("cache_health", r.cache_health);
  b.add("largest_component", r.largest_component);
  b.add("final_largest_component",
        static_cast<std::uint64_t>(r.final_largest_component));
  b.add("final_largest_strong_component",
        static_cast<std::uint64_t>(r.final_largest_strong_component));
  b.add("deaths", r.deaths);
  b.add("pings_sent", r.pings_sent);
  b.add("pings_to_dead", r.pings_to_dead);
  b.add("transport", r.transport);
  b.add("attack", r.attack);
  b.add("queries_stalled_out", r.queries_stalled_out);
  b.add("interval_series", r.interval_series);
  b.add("measure_duration", r.measure_duration);
  b.add("network_size", static_cast<std::uint64_t>(r.network_size));
  return b.take();
}

/// Every SearchResults field except the backend name (a string; callers
/// check it) and the typed extension slot (each backend's test adds its own
/// payload's fields).
inline GoldenRecord golden_record(const search::SearchResults& r) {
  GoldenRecorder b;
  b.add("network_size", static_cast<std::uint64_t>(r.network_size));
  b.add("measure_duration", r.measure_duration);
  b.add("events_fired", r.events_fired);
  b.add("queries_completed", r.queries_completed);
  b.add("queries_satisfied", r.queries_satisfied);
  b.add("probes", r.probes);
  b.add("query_messages", r.query_messages);
  b.add("maintenance_messages", r.maintenance_messages);
  b.add("query_bytes", r.query_bytes);
  b.add("maintenance_bytes", r.maintenance_bytes);
  b.add("deaths", r.deaths);
  b.add("response_time", r.response_time);
  b.add("probe_samples", r.probe_samples.values());
  b.add("interval_series", r.interval_series);
  b.add("overload", r.overload);
  return b.take();
}

/// Every field of AveragedResults.
inline GoldenRecord golden_record(const experiments::AveragedResults& a) {
  GoldenRecorder b;
  b.add("probes_per_query", a.probes_per_query);
  b.add("good_per_query", a.good_per_query);
  b.add("dead_per_query", a.dead_per_query);
  b.add("refused_per_query", a.refused_per_query);
  b.add("unsatisfied_rate", a.unsatisfied_rate);
  b.add("fraction_live", a.fraction_live);
  b.add("absolute_live", a.absolute_live);
  b.add("good_entries", a.good_entries);
  b.add("largest_component", a.largest_component);
  b.add("response_time", a.response_time);
  b.add("queries_completed", a.queries_completed);
  b.add("probes_per_query_se", a.probes_per_query_se);
  b.add("unsatisfied_rate_se", a.unsatisfied_rate_se);
  b.add("final_largest_component", a.final_largest_component);
  b.add("final_largest_strong_component", a.final_largest_strong_component);
  return b.take();
}

/// Exact text of one value: decimal for integers below 2^53, else %a.
inline std::string golden_value_text(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::trunc(v) && std::fabs(v) < 0x1p53 &&
      !(v == 0.0 && std::signbit(v))) {
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%a", v);
  }
  return buf;
}

/// Parse tests/testdata/<file>. Fails the calling test on a malformed line.
inline GoldenFile load_goldens(const std::string& file) {
  const std::string path = std::string(GUESS_TESTDATA_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  GoldenFile out;
  GoldenRecord* current = nullptr;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.front() == '[' && line.back() == ']') {
      current = &out[line.substr(1, line.size() - 2)];
      continue;
    }
    EXPECT_NE(current, nullptr) << "field before any [case]: " << line;
    if (current == nullptr) break;
    std::istringstream fields(line);
    std::string name;
    std::string token;
    fields >> name;
    std::vector<double> values;
    while (fields >> token) {
      char* end = nullptr;
      values.push_back(std::strtod(token.c_str(), &end));
      EXPECT_EQ(*end, '\0') << "bad value '" << token << "' in " << path;
    }
    current->emplace_back(name, std::move(values));
  }
  return out;
}

/// Literal == on every field: same field names in the same order, and every
/// value equal as a double.
inline void expect_matches_golden(const GoldenRecord& golden,
                                  const GoldenRecord& actual) {
  ASSERT_EQ(golden.size(), actual.size());
  for (std::size_t f = 0; f < golden.size(); ++f) {
    const auto& [name, want] = golden[f];
    const auto& [actual_name, got] = actual[f];
    ASSERT_EQ(name, actual_name);
    ASSERT_EQ(want.size(), got.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i] != got[i]) {
        ADD_FAILURE() << name << "[" << i << "]: golden "
                      << golden_value_text(want[i]) << ", got "
                      << golden_value_text(got[i]);
        break;
      }
    }
  }
}

/// Look up `case_name` in `goldens` and compare; fails if the case is
/// missing.
inline void expect_matches_golden(const GoldenFile& goldens,
                                  const std::string& case_name,
                                  const GoldenRecord& actual) {
  auto it = goldens.find(case_name);
  ASSERT_NE(it, goldens.end()) << "no golden case [" << case_name << "]";
  expect_matches_golden(it->second, actual);
}

}  // namespace guess::testsupport
