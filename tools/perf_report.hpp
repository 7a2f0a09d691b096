#pragma once

// The reader behind tools/perf_compare: a purpose-built scanner for the
// handful of keys the perf gate needs ("name", "cpu_time", "cpu_time_ns",
// "time_unit", "peak_rss_bytes") in a google-benchmark JSON report or in a
// baseline perf_compare emitted. Not a general JSON parser, so the tool
// has no third-party dependencies.
//
// Every row it returns has a non-empty name without escapes or control
// characters, a finite cpu_time_ns > 0 and a finite peak_rss_bytes >= 0.
// Anything it cannot read that way is rejected with a ReportError naming
// the defect; a value it merely cannot gate on (a zero time) skips the
// entry.

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbs::perf {

/// A report the gate cannot trust. what() names the defect, e.g.
/// "unknown time_unit 'min' in entry 'BM_Foo'".
class ReportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct BenchResult {
  std::string name;
  double cpu_time_ns = 0.0;
  double peak_rss_bytes = 0.0;  ///< 0 = not reported for this entry
};

/// Nanoseconds per `unit`; throws ReportError for any other unit, so a
/// report is never silently read in the wrong scale.
inline double unit_to_ns(std::string_view unit, std::string_view entry) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1.0e3;
  if (unit == "ms") return 1.0e6;
  if (unit == "s") return 1.0e9;
  throw ReportError("unknown time_unit '" + std::string(unit) +
                    "' in entry '" + std::string(entry) + "'");
}

/// `text` as a whole finite number, or nullopt (empty, trailing
/// characters, out of range, inf, nan, hex).
inline std::optional<double> parse_number(std::string_view text) {
  const std::string token(text);
  if (token.empty() ||
      token.find_first_not_of("0123456789+-.eE") != std::string::npos) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

namespace detail {

inline bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// The JSON string value starting at `pos` (its opening quote), or nullopt
/// when there is none. Benchmark names carry no escapes, so a backslash or
/// a control character is not accepted either.
inline std::optional<std::string> read_string_value(std::string_view text,
                                                    std::size_t pos) {
  if (pos >= text.size() || text[pos] != '"') return std::nullopt;
  const std::size_t end = text.find('"', pos + 1);
  if (end == std::string_view::npos) return std::nullopt;
  const std::string_view value = text.substr(pos + 1, end - pos - 1);
  for (const char c : value) {
    if (c == '\\' || static_cast<unsigned char>(c) < 0x20) return std::nullopt;
  }
  return std::string(value);
}

/// The number value starting at `pos`: the token must be a whole finite
/// number followed by a JSON delimiter (or the end of `text`).
inline std::optional<double> read_number_value(std::string_view text,
                                               std::size_t pos) {
  std::size_t end = text.find_first_not_of("0123456789+-.eE", pos);
  if (end == std::string_view::npos) end = text.size();
  std::size_t after = end;
  while (after < text.size() && is_space(text[after])) ++after;
  if (after < text.size() && text[after] != ',' && text[after] != '}' &&
      text[after] != ']') {
    return std::nullopt;
  }
  return parse_number(text.substr(pos, end - pos));
}

/// Position just past `"key":` (and any whitespace), searching from
/// `from`, or npos.
inline std::size_t find_value_of(std::string_view text, std::string_view key,
                                 std::size_t from) {
  const std::string needle = '"' + std::string(key) + '"';
  while (true) {
    const std::size_t at = text.find(needle, from);
    if (at == std::string_view::npos) return std::string_view::npos;
    std::size_t pos = at + needle.size();
    while (pos < text.size() && is_space(text[pos])) ++pos;
    if (pos < text.size() && text[pos] == ':') {
      ++pos;
      while (pos < text.size() && is_space(text[pos])) ++pos;
      return pos;
    }
    from = at + 1;  // matched inside a string value; keep looking
  }
}

/// The finite, non-negative number under `key` in `span` (searching from
/// `from`), nullopt when the key is absent; throws when it is malformed.
inline std::optional<double> read_field(std::string_view span,
                                        std::string_view key, std::size_t from,
                                        const std::string& entry) {
  const std::size_t at = find_value_of(span, key, from);
  if (at == std::string_view::npos) return std::nullopt;
  const std::optional<double> value = read_number_value(span, at);
  if (!value || *value < 0.0) {
    throw ReportError("bad " + std::string(key) + " in entry '" + entry +
                      "': not a finite number >= 0");
  }
  return value;
}

}  // namespace detail

/// The benchmark entries of a google-benchmark report or an emitted
/// baseline, in file order. Each entry is delimited by a "name" key; its
/// other keys are taken from the span up to the next "name".
inline std::vector<BenchResult> parse_benchmarks(std::string_view text) {
  using detail::find_value_of;
  using detail::read_field;
  // Only scan inside the "benchmarks" array: the "context" block of a raw
  // report also has string keys.
  const std::size_t start = find_value_of(text, "benchmarks", 0);
  if (start == std::string_view::npos) {
    throw ReportError("no \"benchmarks\" key");
  }
  std::vector<BenchResult> out;
  std::size_t name_at = find_value_of(text, "name", start);
  while (name_at != std::string_view::npos) {
    const std::size_t next_name = find_value_of(text, "name", name_at);
    const std::string_view span = text.substr(
        0, next_name == std::string_view::npos ? text.size() : next_name);

    BenchResult r;
    std::optional<std::string> name = detail::read_string_value(span, name_at);
    if (!name || name->empty()) {
      throw ReportError(
          "entry " + std::to_string(out.size() + 1) +
          ": \"name\" is not a non-empty string without escapes");
    }
    r.name = std::move(*name);
    if (const auto ns = read_field(span, "cpu_time_ns", name_at, r.name)) {
      r.cpu_time_ns = *ns;
    } else if (const auto t = read_field(span, "cpu_time", name_at, r.name)) {
      double scale = 1.0;
      if (const std::size_t u_at = find_value_of(span, "time_unit", name_at);
          u_at != std::string_view::npos) {
        const std::optional<std::string> unit =
            detail::read_string_value(span, u_at);
        if (!unit) {
          throw ReportError("bad time_unit in entry '" + r.name +
                            "': not a string");
        }
        scale = unit_to_ns(*unit, r.name);
      }
      r.cpu_time_ns = *t * scale;
      if (!std::isfinite(r.cpu_time_ns)) {
        throw ReportError("cpu_time of entry '" + r.name +
                          "' overflows in nanoseconds");
      }
    }
    if (const auto rss =
            read_field(span, "peak_rss_bytes", name_at, r.name)) {
      r.peak_rss_bytes = *rss;
    }
    if (r.cpu_time_ns > 0.0) out.push_back(std::move(r));
    name_at = next_name;
  }
  return out;
}

}  // namespace cbs::perf
