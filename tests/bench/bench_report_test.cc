// The shared bench report: its reader against every checked-in baseline,
// and the --check comparison rule (bench_report.h) case by case. Runs no
// simulation.
#include "bench_report.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"

namespace guess::bench {
namespace {

const char* const kBaselines[] = {"BENCH_adversary.json", "BENCH_backends.json",
                                  "BENCH_events.json", "BENCH_overload.json",
                                  "BENCH_queries.json"};

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string baseline_text(const std::string& name) {
  return read_text(std::string(GUESS_SOURCE_DIR) + "/" + name);
}

// `text` with the first `from` replaced by `to`; `from` must occur.
std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

bool passes(const Report& baseline, const Report& live,
            const Floors& floors = {}) {
  std::ostringstream log;
  return compare(baseline, live, floors, log);
}

Flags make_flags(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"bench"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchReport, CheckedInBaselinesParse) {
  for (const char* name : kBaselines) {
    SCOPED_TRACE(name);
    Report baseline = Report::parse(baseline_text(name));
    EXPECT_FALSE(baseline.entries().empty());
    EXPECT_TRUE(passes(baseline, baseline));
    EXPECT_EQ(Report::parse(baseline.to_json()).to_json(), baseline.to_json());
  }
}

// The two matrix baselines are in the writer's layout, so re-recording one
// at unchanged results reproduces it byte for byte.
TEST(BenchReport, WriterReproducesTheMatrixBaselines) {
  for (const char* name : {"BENCH_backends.json", "BENCH_overload.json"}) {
    SCOPED_TRACE(name);
    std::string text = baseline_text(name);
    EXPECT_EQ(Report::parse(text).to_json(), text);
  }
}

TEST(BenchReport, ChangedLastDigitOfAnExactLeafFails) {
  std::string text = baseline_text("BENCH_backends.json");
  Report live = Report::parse(replace_once(text, "\"success_rate\": 0.9410",
                                           "\"success_rate\": 0.9411"));
  std::ostringstream log;
  EXPECT_FALSE(compare(Report::parse(text), live, {}, log));
  EXPECT_NE(log.str().find("matrix.flood.static.success_rate"),
            std::string::npos)
      << log.str();
}

TEST(BenchReport, BaselineLeafMissingFromALiveObjectFails) {
  std::string text = baseline_text("BENCH_backends.json");
  Report live = Report::parse(replace_once(text, ", \"deaths\": 2}", "}"));
  std::ostringstream log;
  EXPECT_FALSE(compare(Report::parse(text), live, {}, log));
  EXPECT_NE(log.str().find("matrix.flood.static.deaths missing"),
            std::string::npos)
      << log.str();
}

// The report `bench_query_throughput --n=1000` writes: one network size,
// timing leaves that differ from the baseline's.
TEST(BenchReport, ObjectTheLiveRunLacksIsSkipped) {
  Report live;
  Report& workload = live.object("workload");
  workload.set("policies", quoted("probe=MR pong=MR ping=LRU/MFS replace=LR"));
  workload.set("seed", 42);
  Report& n1000 = live.object("end_to_end").object("n1000");
  n1000.set("measure_seconds", fixed(1200.0, 0));
  n1000.set("wall_seconds", timing(0.9, 3));
  n1000.set("queries_completed", 11211);
  n1000.set("probes", 270960);
  n1000.set("events", 410594);
  n1000.set("queries_per_sec", timing(12456.7, 1));
  n1000.set("probes_per_sec", timing(1.0, 1));
  n1000.set("events_per_sec", timing(1.0, 1));
  live.set("schedulers_bitwise_identical", true);

  std::ostringstream log;
  EXPECT_TRUE(compare(Report::parse(baseline_text("BENCH_queries.json")), live,
                      {{"queries_per_sec", 0.70}}, log))
      << log.str();
  EXPECT_NE(log.str().find("skipped end_to_end.n10000"), std::string::npos)
      << log.str();
  EXPECT_NE(log.str().find("skipped end_to_end.n50000"), std::string::npos)
      << log.str();
}

// The report `bench_query_throughput --n=200` writes: no network size the
// baseline has, so every end_to_end object would be skipped and the count
// and q/s gates would check nothing. That fails, even though the workload
// object matches.
TEST(BenchReport, SharingNoObjectAtALevelFails) {
  Report live;
  Report& workload = live.object("workload");
  workload.set("policies", quoted("probe=MR pong=MR ping=LRU/MFS replace=LR"));
  workload.set("seed", 42);
  Report& n200 = live.object("end_to_end").object("n200");
  n200.set("queries_completed", 600);
  n200.set("queries_per_sec", timing(12456.7, 1));
  live.set("schedulers_bitwise_identical", true);

  std::ostringstream log;
  EXPECT_FALSE(compare(Report::parse(baseline_text("BENCH_queries.json")),
                       live, {{"queries_per_sec", 0.70}}, log))
      << log.str();
  EXPECT_NE(log.str().find("end_to_end shares none of its objects"),
            std::string::npos)
      << log.str();
}

TEST(BenchReport, QueriesPerSecFloor) {
  Report baseline = Report::parse(
      R"({"end_to_end": {"n1000": {"queries_per_sec": 1000.0}}})");
  auto live_at = [](double qps) {
    Report live;
    live.object("end_to_end").object("n1000").set("queries_per_sec",
                                                  timing(qps, 1));
    return live;
  };
  const Floors floors = {{"queries_per_sec", 1.0 - 0.30}};
  EXPECT_FALSE(passes(baseline, live_at(690.0), floors));
  EXPECT_TRUE(passes(baseline, live_at(710.0), floors));
  // A timing leaf without a floor is not compared.
  EXPECT_TRUE(passes(baseline, live_at(1.0)));
}

TEST(BenchReport, OutNamingTheCheckFileThrows) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "bench_report_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string text = baseline_text("BENCH_queries.json");
  const std::string path = dir + "/baseline.json";
  std::ofstream(path) << text;

  EXPECT_THROW(ReportFiles(make_flags({"--out=" + path, "--check=" + path}),
                           "BENCH_queries.json"),
               CheckError);
  EXPECT_THROW(ReportFiles(make_flags({"--out=" + dir + "/./baseline.json",
                                       "--check=" + path}),
                           "BENCH_queries.json"),
               CheckError);
  // No --out: the default names the baseline.
  EXPECT_THROW(ReportFiles(make_flags({"--check=" + path}), path), CheckError);

  ReportFiles files(make_flags({"--out=" + dir + "/live.json",
                                "--check=" + path}),
                    "BENCH_queries.json");
  EXPECT_TRUE(files.finish(Report::parse(text)));
  EXPECT_EQ(read_text(path), text);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace guess::bench
