// Seeded mutation fuzzing of perf_compare's report reader
// (tools/perf_report.hpp): the committed micro baseline and a raw
// google-benchmark report are flipped, cut, duplicated and spliced at the
// byte and JSON-token level, and every mutant must either parse to rows
// with a non-empty name, a finite cpu_time_ns > 0 and a finite
// peak_rss_bytes >= 0, or be rejected with a cbs::perf::ReportError that
// names the defect. No other exception type, no crash. The iteration
// count and seed are fixed, so the run is deterministic and fits the
// sanitizer job.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perf_report.hpp"
#include "simcore/rng.hpp"

namespace {

using cbs::perf::BenchResult;
using cbs::perf::ReportError;
using cbs::perf::parse_benchmarks;
using cbs::sim::RngStream;

constexpr std::size_t kIterations = 4000;
constexpr std::uint64_t kSeed = 20107;

std::string committed_baseline() {
  std::ifstream in(CBS_BENCH_MICRO_JSON);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A google-benchmark --benchmark_format=json report, trimmed: the context
/// block (whose keys the reader must skip) and entries in three units.
const std::string& raw_report() {
  static const std::string kReport = R"({
  "context": {
    "date": "2026-01-01T00:00:00+00:00",
    "host_name": "bench-host",
    "executable": "./bench/micro_perf",
    "num_cpus": 4,
    "caches": [
      {"type": "Data", "level": 1, "size": 49152, "num_sharing": 1}
    ],
    "load_avg": [2.7,1.9,1.4],
    "library_build_type": "release"
  },
  "benchmarks": [
    {
      "name": "BM_SlackMaintenance/100",
      "family_index": 0,
      "per_family_instance_index": 0,
      "run_name": "BM_SlackMaintenance/100",
      "run_type": "iteration",
      "repetitions": 1,
      "repetition_index": 0,
      "threads": 1,
      "iterations": 60841,
      "real_time": 2.2594267023687959e+02,
      "cpu_time": 2.2600341874722639e+02,
      "time_unit": "ns",
      "items_per_second": 4.4247118275606725e+06
    },
    {
      "name": "BM_SnapshotFork",
      "run_name": "BM_SnapshotFork",
      "run_type": "iteration",
      "iterations": 5120,
      "real_time": 1.3412e+02,
      "cpu_time": 1.3398e+02,
      "time_unit": "us"
    },
    {
      "name": "BM_ParallelPlan/2/process_time/real_time",
      "family_index": 1,
      "run_name": "BM_ParallelPlan/2/process_time/real_time",
      "run_type": "iteration",
      "iterations": 9,
      "real_time": 1.4998123333245732e+00,
      "cpu_time": 2.6162141111111112e+00,
      "time_unit": "ms",
      "peak_rss_bytes": 5021700
    }
  ]
}
)";
  return kReport;
}

/// Tokens that sit on the reader's edges: unknown and odd units, the keys
/// it looks for, non-numbers, out-of-range and non-finite numbers,
/// escapes and structure.
const std::vector<std::string>& edge_tokens() {
  static const std::vector<std::string> kTokens = {
      "\"min\"", "\"\"", "\"ns\"", "\"us\"", "\"ms\"", "\"s\"", "\"NS\"",
      "\"name\"", "\"cpu_time\"", "\"cpu_time_ns\"", "\"time_unit\"",
      "\"peak_rss_bytes\"", "\"benchmarks\"", "\"a\\\"b\"", "\"\\u0000\"",
      "0", "-0", "-1", "1e999", "-1e999", "1e-320", "1e308", "nan", "NaN",
      "inf", "-inf", "Infinity", "0x1p3", "+", "-", ".", "e5", "1e", "1..2",
      "null", "true", "{", "}", "[", "]", ":", ",", "\"", std::string(1, '\0')};
  return kTokens;
}

/// Splits JSON text into tokens: strings (quotes included), number-ish
/// runs, single punctuation characters and whitespace runs.
std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i + 1;
    if (text[i] == '"') {
      while (j < text.size() && text[j] != '"') ++j;
      if (j < text.size()) ++j;
    } else if (std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      while (j < text.size() &&
             std::isspace(static_cast<unsigned char>(text[j])) != 0) {
        ++j;
      }
    } else if (std::isalnum(static_cast<unsigned char>(text[i])) != 0 ||
               text[i] == '-' || text[i] == '+' || text[i] == '.') {
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) != 0 ||
              text[j] == '-' || text[j] == '+' || text[j] == '.')) {
        ++j;
      }
    }
    tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

std::string join(const std::vector<std::string>& tokens) {
  std::string text;
  for (const std::string& t : tokens) text += t;
  return text;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    const std::uint64_t rounds = rng_.uniform_int(1, 4);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      switch (rng_.uniform_int(0, 6)) {
        case 0: text = flip_byte(text); break;
        case 1: text = drop_bytes(text); break;
        case 2: text = splice_bytes(text); break;
        case 3: text = replace_token(text); break;
        case 4: text = drop_or_duplicate_token(text); break;
        case 5: text = swap_tokens(text); break;
        default: text = truncate(text); break;
      }
    }
    return text;
  }

 private:
  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
  }

  std::string flip_byte(std::string text) {
    if (text.empty()) return text;
    text[pick(text.size())] ^= static_cast<char>(1U << pick(8));
    return text;
  }

  std::string drop_bytes(std::string text) {
    if (text.empty()) return text;
    text.erase(pick(text.size()), 1 + pick(8));
    return text;
  }

  std::string splice_bytes(std::string text) {
    if (text.empty()) return text;
    const std::string piece = text.substr(pick(text.size()), 1 + pick(40));
    text.insert(pick(text.size() + 1), piece);
    return text;
  }

  std::string truncate(std::string text) {
    text.resize(pick(text.size() + 1));
    return text;
  }

  /// Replaces a string or number token (the values the reader reads) with
  /// an edge token.
  std::string replace_token(const std::string& text) {
    std::vector<std::string> tokens = tokenize(text);
    std::vector<std::size_t> values;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const char c = tokens[i][0];
      if (c == '"' || c == '-' ||
          std::isdigit(static_cast<unsigned char>(c)) != 0) {
        values.push_back(i);
      }
    }
    if (values.empty()) return text;
    tokens[values[pick(values.size())]] =
        edge_tokens()[pick(edge_tokens().size())];
    return join(tokens);
  }

  std::string drop_or_duplicate_token(const std::string& text) {
    std::vector<std::string> tokens = tokenize(text);
    if (tokens.empty()) return text;
    const std::size_t at = pick(tokens.size());
    const auto it = tokens.begin() + static_cast<std::ptrdiff_t>(at);
    if (rng_.uniform_int(0, 1) == 0) {
      tokens.erase(it);
    } else {
      const std::string copy = tokens[at];
      tokens.insert(it, copy);
    }
    return join(tokens);
  }

  std::string swap_tokens(const std::string& text) {
    std::vector<std::string> tokens = tokenize(text);
    if (tokens.empty()) return text;
    std::swap(tokens[pick(tokens.size())], tokens[pick(tokens.size())]);
    return join(tokens);
  }

  RngStream rng_;
};

void expect_sound_rows(const std::vector<BenchResult>& rows,
                       const std::string& mutant) {
  for (const BenchResult& r : rows) {
    EXPECT_FALSE(r.name.empty()) << mutant;
    for (const char c : r.name) {
      EXPECT_TRUE(c != '\\' && static_cast<unsigned char>(c) >= 0x20)
          << r.name << "\n" << mutant;
    }
    EXPECT_TRUE(std::isfinite(r.cpu_time_ns) && r.cpu_time_ns > 0.0)
        << r.name << " " << r.cpu_time_ns << "\n" << mutant;
    EXPECT_TRUE(std::isfinite(r.peak_rss_bytes) && r.peak_rss_bytes >= 0.0)
        << r.name << " " << r.peak_rss_bytes << "\n" << mutant;
  }
}

TEST(PerfReportTest, ReadsTheCommittedBaselineAndARawReport) {
  const std::vector<BenchResult> baseline =
      parse_benchmarks(committed_baseline());
  EXPECT_GE(baseline.size(), 40u);
  expect_sound_rows(baseline, "baseline");

  const std::vector<BenchResult> raw = parse_benchmarks(raw_report());
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0].name, "BM_SlackMaintenance/100");
  EXPECT_DOUBLE_EQ(raw[0].cpu_time_ns, 2.2600341874722639e+02);
  EXPECT_DOUBLE_EQ(raw[1].cpu_time_ns, 1.3398e+05);
  EXPECT_DOUBLE_EQ(raw[2].cpu_time_ns, 2.6162141111111112e+06);
  EXPECT_EQ(raw[2].peak_rss_bytes, 5021700.0);
}

std::string reject_reason(const std::string& text) {
  try {
    (void)parse_benchmarks(text);
  } catch (const ReportError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(PerfReportTest, RejectsWhatItCannotReadWithANamedError) {
  const std::string head = R"({"benchmarks": [{"name": "BM_X", )";
  EXPECT_EQ(reject_reason(head + R"("cpu_time": 3, "time_unit": "min"}]})"),
            "unknown time_unit 'min' in entry 'BM_X'");
  EXPECT_EQ(reject_reason(head + R"("cpu_time": 3, "time_unit": 7}]})"),
            "bad time_unit in entry 'BM_X': not a string");
  for (const char* value : {"\"abc\"", "-5", "1e999", "nan", "inf", "12abc",
                            "0x10", "", "1e"}) {
    EXPECT_EQ(reject_reason(head + "\"cpu_time_ns\": " + value + "}]}"),
              "bad cpu_time_ns in entry 'BM_X': not a finite number >= 0")
        << value;
  }
  EXPECT_EQ(reject_reason(head + R"("cpu_time": 1e300, "time_unit": "s"}]})"),
            "cpu_time of entry 'BM_X' overflows in nanoseconds");
  EXPECT_EQ(
      reject_reason(head + R"("cpu_time_ns": 5, "peak_rss_bytes": -1}]})"),
            "bad peak_rss_bytes in entry 'BM_X': not a finite number >= 0");
  EXPECT_EQ(
      reject_reason(R"({"benchmarks": [{"name": "a\"b", "cpu_time_ns": 1}]})"),
            "entry 1: \"name\" is not a non-empty string without escapes");
  EXPECT_EQ(reject_reason(R"({"benchmark": []})"), "no \"benchmarks\" key");
  // A zero time cannot be gated on: the entry is skipped, not an error.
  EXPECT_EQ(reject_reason(head + R"("cpu_time_ns": 0}]})"), "accepted");
}

TEST(PerfReportTest, MutantsParseToSoundRowsOrAreRejectedByName) {
  const std::vector<std::string> sources = {committed_baseline(), raw_report()};
  Mutator mutator(kSeed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string mutant = mutator.mutate(sources[i % sources.size()]);
    try {
      expect_sound_rows(parse_benchmarks(mutant), mutant);
      ++accepted;
    } catch (const ReportError& e) {
      EXPECT_NE(std::string(e.what()), "") << mutant;
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unnamed exception " << e.what() << " on:\n" << mutant;
    }
    if (HasFailure()) break;
  }
  // Both outcomes are exercised, so the run tests the checks, not just one
  // branch.
  EXPECT_GT(accepted, kIterations / 10);
  EXPECT_GT(rejected, kIterations / 10);
}

}  // namespace
