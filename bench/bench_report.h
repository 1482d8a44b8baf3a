// Machine-readable bench reports: the one JSON writer, reader and
// --out/--check handler shared by the benches that keep a checked-in
// BENCH_*.json baseline.
//
// A report is an ordered tree of objects. Each leaf is formatted once, when
// it is set, and is either *exact* (the default: counts, deterministic
// rates, configuration) or *timing* (wall-clock measurements). --check
// compares a live report against a baseline file by one rule:
//   * a baseline object the live report lacks is skipped, and printed
//     (n10000 when the bench runs --n=1000), but only beside a sibling
//     object the live report shares and in which an exact leaf was
//     compared: when every object at one level is skipped, nothing there
//     was checked, and the comparison fails;
//   * inside an object both have, every baseline leaf must exist live;
//   * an exact leaf must equal the baseline's text byte for byte;
//   * a timing leaf is compared only where the bench names a floor for its
//     key: live >= floor × baseline.
#pragma once

#include <concepts>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace guess {
class Flags;
}

namespace guess::bench {

/// One leaf value, already in its JSON text form.
struct Leaf {
  std::string text;
  bool timing = false;  ///< wall-clock: compared only against a floor
};

/// `value` with `digits` decimals (std::fixed).
Leaf fixed(double value, int digits);
/// `value` in the stream's default format (six significant digits).
Leaf general(double value);
/// A wall-clock measurement with `digits` decimals.
Leaf timing(double value, int digits);
/// A JSON string.
Leaf quoted(std::string_view text);
/// A JSON array of strings.
Leaf quoted(const std::vector<std::string>& items);

/// An ordered JSON object of leaves and nested objects.
class Report {
 public:
  /// The child object under `key`, appended when absent.
  Report& object(const std::string& key);
  /// Appends leaf `key`; each key is set once.
  void set(const std::string& key, Leaf leaf);
  template <std::integral T>
  void set(const std::string& key, T value) {
    if constexpr (std::same_as<T, bool>) {
      set(key, Leaf{value ? "true" : "false"});
    } else {
      set(key, Leaf{std::to_string(value)});
    }
  }

  struct Entry {
    std::string key;
    Leaf leaf;
    std::unique_ptr<Report> object;  ///< set for a nested object
  };
  const std::vector<Entry>& entries() const { return entries_; }
  /// Null when `key` is absent or names the other kind of entry.
  const Report* find_object(const std::string& key) const;
  const Leaf* find_leaf(const std::string& key) const;

  /// The report as JSON: an object of leaves only on one line, any other
  /// object one entry per line, indented two spaces per level.
  std::string to_json() const;

  /// Reads JSON objects, strings without escapes, numbers, true/false/null
  /// and arrays of those; throws CheckError on anything else. Every leaf
  /// reads as exact.
  static Report parse(std::string_view json);

 private:
  const Entry* find(const std::string& key) const;
  void append_json(std::string& out, int indent) const;

  std::vector<Entry> entries_;
};

/// Writes `report` to `path` and prints "wrote <path>".
void write(const std::string& path, const Report& report);

/// Floors for timing leaves, by leaf key: live >= floor × baseline.
using Floors = std::map<std::string, double>;

/// Compares `live` against `baseline` by the rule in this header's comment,
/// printing every skipped object, floor and regression to `log`. True when
/// the live report passes.
bool compare(const Report& baseline, const Report& live, const Floors& floors,
             std::ostream& log);

/// The --out=<file> / --check=<baseline> handler. The baseline is read and
/// parsed on construction, before the bench runs, and an --out that
/// resolves to the --check file throws CheckError, so a check never
/// rewrites its baseline.
class ReportFiles {
 public:
  ReportFiles(const Flags& flags, const std::string& default_out);

  /// Writes `report` to --out and, when --check named a baseline, compares
  /// against it. False on a regression.
  bool finish(const Report& report, const Floors& floors = {}) const;

 private:
  std::string out_path_;
  std::string check_path_;
  std::optional<Report> baseline_;
};

}  // namespace guess::bench
