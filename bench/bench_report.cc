#include "bench_report.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/check.h"
#include "common/flags.h"

namespace guess::bench {
namespace {

// Keys and strings are bench-chosen names; keeping escapes out of them keeps
// the reader's string scan exact.
void check_plain(std::string_view text) {
  for (char c : text) {
    GUESS_CHECK_MSG(
        c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20,
        "report text needs escaping: " << text);
  }
}

class Parser {
 public:
  explicit Parser(std::string_view json) : json_(json) {}

  Report document() {
    Report report = object();
    skip_space();
    GUESS_CHECK_MSG(pos_ == json_.size(), "trailing text at offset " << pos_);
    return report;
  }

 private:
  void skip_space() {
    while (pos_ < json_.size() &&
           (json_[pos_] == ' ' || json_[pos_] == '\n' || json_[pos_] == '\t' ||
            json_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_space();
    GUESS_CHECK_MSG(pos_ < json_.size(), "unexpected end of JSON");
    return json_[pos_];
  }

  void expect(char c) {
    GUESS_CHECK_MSG(peek() == c, "expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  // The characters between the quotes.
  std::string string_body() {
    expect('"');
    std::size_t end = json_.find_first_of("\"\\", pos_);
    GUESS_CHECK_MSG(end != std::string_view::npos && json_[end] == '"',
                    "unterminated or escaped string at offset " << pos_);
    std::string body(json_.substr(pos_, end - pos_));
    pos_ = end + 1;
    return body;
  }

  // A number, true, false or null, as written.
  std::string token() {
    skip_space();
    std::size_t start = pos_;
    while (pos_ < json_.size() && json_[pos_] != ',' && json_[pos_] != '}' &&
           json_[pos_] != ']' && json_[pos_] != ' ' && json_[pos_] != '\n' &&
           json_[pos_] != '\t' && json_[pos_] != '\r') {
      ++pos_;
    }
    GUESS_CHECK_MSG(pos_ > start, "expected a value at offset " << start);
    return std::string(json_.substr(start, pos_ - start));
  }

  std::string scalar() {
    return peek() == '"' ? "\"" + string_body() + "\"" : token();
  }

  // Arrays are leaves, re-spelled the way quoted() writes them.
  std::string array() {
    expect('[');
    std::string text = "[";
    if (peek() != ']') {
      for (;;) {
        GUESS_CHECK_MSG(peek() != '[' && peek() != '{',
                        "nested array or object at offset " << pos_);
        text += scalar();
        if (peek() == ']') break;
        expect(',');
        text += ", ";
      }
    }
    expect(']');
    return text + "]";
  }

  Report object() {
    Report report;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return report;
    }
    for (;;) {
      std::string key = string_body();
      GUESS_CHECK_MSG(report.find_object(key) == nullptr &&
                          report.find_leaf(key) == nullptr,
                      "duplicate key " << key);
      expect(':');
      char next = peek();
      if (next == '{') {
        report.object(key) = object();
      } else {
        report.set(key, Leaf{next == '[' ? array() : scalar()});
      }
      if (peek() == '}') break;
      expect(',');
    }
    ++pos_;
    return report;
  }

  std::string_view json_;
  std::size_t pos_ = 0;
};

struct Comparison {
  bool ok = true;
  bool compared_exact = false;  ///< an exact leaf in the subtree was compared
};

Comparison compare_object(const Report& baseline, const Report& live,
                          const Floors& floors, const std::string& path,
                          std::ostream& log) {
  Comparison result;
  std::size_t skipped = 0;
  std::size_t shared = 0;  // child objects compared with an exact leaf
  for (const auto& [key, base_leaf, base_object] : baseline.entries()) {
    const std::string at = path.empty() ? key : path + "." + key;
    const Report* live_object = live.find_object(key);
    const Leaf* live_leaf = live.find_leaf(key);
    if (base_object) {
      if (live_object != nullptr) {
        Comparison child =
            compare_object(*base_object, *live_object, floors, at, log);
        result.ok = child.ok && result.ok;
        if (child.compared_exact) {
          result.compared_exact = true;
          ++shared;
        }
      } else if (live_leaf != nullptr) {
        log << "REGRESSION: " << at << " is a leaf, the baseline's an object\n";
        result.ok = false;
      } else {
        log << "check: skipped " << at << " (not in this run)\n";
        ++skipped;
      }
      continue;
    }
    if (live_leaf == nullptr) {
      log << "REGRESSION: " << at << " missing from this run\n";
      result.ok = false;
    } else if (!live_leaf->timing) {
      result.compared_exact = true;
      if (live_leaf->text != base_leaf.text) {
        log << "REGRESSION: " << at << " = " << live_leaf->text
            << ", baseline " << base_leaf.text << "\n";
        result.ok = false;
      }
    } else if (auto floor = floors.find(key); floor != floors.end()) {
      double base = std::strtod(base_leaf.text.c_str(), nullptr);
      double now = std::strtod(live_leaf->text.c_str(), nullptr);
      double ratio = base > 0.0 ? now / base : 1.0;
      log << "check " << at << ": " << live_leaf->text << " vs baseline "
          << base_leaf.text << " (" << fixed(ratio, 2).text << "x, floor "
          << fixed(floor->second, 2).text << "x)\n";
      if (now < floor->second * base) {
        log << "REGRESSION: " << at << " fell below its floor\n";
        result.ok = false;
      }
    }
  }
  if (skipped > 0 && shared == 0) {
    log << "REGRESSION: " << (path.empty() ? "the report" : path)
        << " shares none of its objects with the baseline (all " << skipped
        << " skipped), so nothing there was checked\n";
    result.ok = false;
  }
  return result;
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  GUESS_CHECK_MSG(in.good(), "cannot read baseline " << path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

Leaf fixed(double value, int digits) {
  std::ostringstream text;
  text << std::fixed << std::setprecision(digits) << value;
  return {text.str()};
}

Leaf general(double value) {
  std::ostringstream text;
  text << value;
  return {text.str()};
}

Leaf timing(double value, int digits) {
  Leaf leaf = fixed(value, digits);
  leaf.timing = true;
  return leaf;
}

Leaf quoted(std::string_view text) {
  check_plain(text);
  return {"\"" + std::string(text) + "\""};
}

Leaf quoted(const std::vector<std::string>& items) {
  std::string text = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    text += (i > 0 ? ", " : "") +
            bench::quoted(std::string_view(items[i])).text;
  }
  return {text + "]"};
}

Report& Report::object(const std::string& key) {
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      GUESS_CHECK_MSG(entry.object, "report key " << key << " is a leaf");
      return *entry.object;
    }
  }
  check_plain(key);
  entries_.push_back({key, Leaf{}, std::make_unique<Report>()});
  return *entries_.back().object;
}

void Report::set(const std::string& key, Leaf leaf) {
  GUESS_CHECK_MSG(find(key) == nullptr, "report key " << key << " set twice");
  check_plain(key);
  entries_.push_back({key, std::move(leaf), nullptr});
}

const Report::Entry* Report::find(const std::string& key) const {
  for (const Entry& entry : entries_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

const Report* Report::find_object(const std::string& key) const {
  const Entry* entry = find(key);
  return entry != nullptr ? entry->object.get() : nullptr;
}

const Leaf* Report::find_leaf(const std::string& key) const {
  const Entry* entry = find(key);
  return entry != nullptr && !entry->object ? &entry->leaf : nullptr;
}

void Report::append_json(std::string& out, int indent) const {
  bool flat = true;
  for (const Entry& entry : entries_) flat = flat && !entry.object;
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  out += flat ? "{" : "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (!flat) out += pad;
    out += "\"" + entry.key + "\": ";
    if (entry.object) {
      entry.object->append_json(out, indent + 2);
    } else {
      out += entry.leaf.text;
    }
    if (i + 1 < entries_.size()) out += flat ? ", " : ",";
    if (!flat) out += "\n";
  }
  if (!flat) out += std::string(static_cast<std::size_t>(indent), ' ');
  out += "}";
}

std::string Report::to_json() const {
  std::string out;
  append_json(out, 0);
  return out + "\n";
}

Report Report::parse(std::string_view json) {
  return Parser(json).document();
}

bool compare(const Report& baseline, const Report& live, const Floors& floors,
             std::ostream& log) {
  return compare_object(baseline, live, floors, "", log).ok;
}

void write(const std::string& path, const Report& report) {
  std::ofstream out(path);
  GUESS_CHECK_MSG(out.good(), "cannot write " << path);
  out << report.to_json();
  GUESS_CHECK_MSG(out.good(), "cannot write " << path);
  std::cout << "wrote " << path << "\n";
}

ReportFiles::ReportFiles(const Flags& flags, const std::string& default_out)
    : out_path_(flags.get_string("out", default_out)),
      check_path_(flags.get_string("check", "")) {
  if (check_path_.empty()) return;
  GUESS_CHECK_MSG(!same_file(out_path_, check_path_),
                  "--out=" << out_path_ << " would overwrite the --check "
                           << "baseline " << check_path_
                           << "; pass --out=<another file>");
  baseline_ = Report::parse(read_file(check_path_));
}

bool ReportFiles::finish(const Report& report, const Floors& floors) const {
  write(out_path_, report);
  if (!baseline_) return true;
  bool ok = compare(*baseline_, report, floors, std::cout);
  std::cout << "check against " << check_path_ << ": "
            << (ok ? "passed" : "FAILED") << "\n";
  return ok;
}

}  // namespace guess::bench
