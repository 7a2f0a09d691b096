// perf_compare — perf-regression gate over google-benchmark JSON output.
//
// Two modes:
//
//   perf_compare emit <raw_benchmark.json> <baseline.json>
//     Distills a google-benchmark JSON report into a minimal committed
//     baseline: {"benchmarks": [{"name": ..., "cpu_time_ns": ...}, ...]}.
//     cpu_time is normalized to nanoseconds regardless of the report's
//     time_unit, so baselines emitted from different unit settings compare.
//     A "peak_rss_bytes" key on an entry (the scale_stress smoke reports
//     one) is carried through into the baseline verbatim.
//
//   perf_compare compare <baseline.json> <current.json> [--threshold 0.30]
//     Compares a fresh report (raw or emitted form — the scanner accepts
//     both) against the committed baseline. Exits 1 when any benchmark
//     present in both is slower than baseline by more than the threshold
//     (relative: current > baseline * (1 + threshold)); peak-RSS rows are
//     gated by the same relative threshold when both sides report one.
//     Benchmarks present on only one side are reported but never fail the
//     gate, so adding a benchmark does not require regenerating the
//     baseline in the same commit.
//
// The reader (tools/perf_report.hpp) accepts a row only with a finite,
// positive time and a known time_unit; a report it cannot trust, a bad
// --threshold or an unknown argument exits 2 with a named error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perf_report.hpp"

namespace {

using cbs::perf::BenchResult;
using cbs::perf::parse_benchmarks;

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The rows of the report at `path`; throws ReportError naming the file.
std::vector<BenchResult> read_report(const std::string& path,
                                     const std::string& text) {
  try {
    return parse_benchmarks(text);
  } catch (const cbs::perf::ReportError& e) {
    throw cbs::perf::ReportError(path + ": " + e.what());
  }
}

int emit(const std::string& in_path, const std::string& out_path) {
  const auto text = read_file(in_path);
  if (!text) {
    std::cerr << "perf_compare: cannot read " << in_path << "\n";
    return 2;
  }
  const auto results = read_report(in_path, *text);
  if (results.empty()) {
    std::cerr << "perf_compare: no benchmarks found in " << in_path << "\n";
    return 2;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "perf_compare: cannot write " << out_path << "\n";
    return 2;
  }
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", results[i].cpu_time_ns);
    out << "    {\"name\": \"" << results[i].name << "\", \"cpu_time_ns\": "
        << buf;
    if (results[i].peak_rss_bytes > 0.0) {
      std::snprintf(buf, sizeof(buf), "%.0f", results[i].peak_rss_bytes);
      out << ", \"peak_rss_bytes\": " << buf;
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "perf_compare: wrote " << results.size() << " baselines to "
            << out_path << "\n";
  return 0;
}

int compare(const std::string& baseline_path, const std::string& current_path,
            double threshold) {
  const auto base_text = read_file(baseline_path);
  const auto cur_text = read_file(current_path);
  if (!base_text || !cur_text) {
    std::cerr << "perf_compare: cannot read "
              << (!base_text ? baseline_path : current_path) << "\n";
    return 2;
  }
  const auto base = read_report(baseline_path, *base_text);
  const auto cur = read_report(current_path, *cur_text);
  if (base.empty() || cur.empty()) {
    std::cerr << "perf_compare: empty benchmark set ("
              << (base.empty() ? baseline_path : current_path) << ")\n";
    return 2;
  }

  const auto find = [](const std::vector<BenchResult>& v,
                       const std::string& name) -> const BenchResult* {
    const auto it = std::find_if(v.begin(), v.end(), [&](const BenchResult& r) {
      return r.name == name;
    });
    return it == v.end() ? nullptr : &*it;
  };

  int regressions = 0;
  std::size_t compared = 0;
  for (const auto& b : base) {
    const BenchResult* c = find(cur, b.name);
    if (c == nullptr) {
      std::cout << "  [gone]   " << b.name << " (in baseline only)\n";
      continue;
    }
    ++compared;
    const double ratio = c->cpu_time_ns / b.cpu_time_ns;
    const bool regressed = c->cpu_time_ns > b.cpu_time_ns * (1.0 + threshold);
    std::printf("  [%s] %-55s %12.1f -> %12.1f ns  (%+.1f%%)\n",
                regressed ? "REGRESS" : "ok     ", b.name.c_str(),
                b.cpu_time_ns, c->cpu_time_ns, (ratio - 1.0) * 100.0);
    if (regressed) ++regressions;
    // Peak-RSS row: gated only when both sides report one, so a benchmark
    // gaining (or dropping) RSS instrumentation never fails the gate.
    if (b.peak_rss_bytes > 0.0 && c->peak_rss_bytes > 0.0) {
      ++compared;
      const double rss_ratio = c->peak_rss_bytes / b.peak_rss_bytes;
      const bool rss_regressed =
          c->peak_rss_bytes > b.peak_rss_bytes * (1.0 + threshold);
      std::printf("  [%s] %-55s %12.0f -> %12.0f B   (%+.1f%%)\n",
                  rss_regressed ? "REGRESS" : "ok     ",
                  (b.name + " [rss]").c_str(), b.peak_rss_bytes,
                  c->peak_rss_bytes, (rss_ratio - 1.0) * 100.0);
      if (rss_regressed) ++regressions;
    } else if (b.peak_rss_bytes > 0.0 || c->peak_rss_bytes > 0.0) {
      std::cout << "  [info]   " << b.name
                << " [rss] reported on one side only — not gated\n";
    }
  }
  // Benchmarks present only in the current run are *additions*: report
  // them so the committed baseline gets regenerated eventually, but never
  // fail the gate on them — a new benchmark must be landable in the same
  // commit that introduces it.
  std::size_t additions = 0;
  for (const auto& c : cur) {
    if (find(base, c.name) == nullptr) {
      ++additions;
      std::cout << "  [new]    " << c.name
                << " (addition — not in baseline, not gated)\n";
    }
  }
  if (additions > 0) {
    std::cout << "perf_compare: warning: " << additions
              << " new benchmark(s) without a baseline; re-run `perf_compare"
                 " emit` to pin them\n";
  }
  std::cout << "perf_compare: " << compared << " compared, " << regressions
            << " regression(s) beyond " << threshold * 100.0 << "%, "
            << additions << " addition(s)\n";
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int usage() {
  std::cerr << "usage:\n"
            << "  perf_compare emit <raw_benchmark.json> <baseline.json>\n"
            << "  perf_compare compare <baseline.json> <current.json>"
            << " [--threshold 0.30]\n";
  return 2;
}

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "emit") {
      return emit(args[1], args[2]);
    }
    if (args.size() >= 3 && args[0] == "compare") {
      double threshold = 0.30;
      for (std::size_t i = 3; i < args.size(); i += 2) {
        if (args[i] != "--threshold") {
          std::cerr << "perf_compare: unknown argument '" << args[i] << "'\n";
          return usage();
        }
        if (i + 1 == args.size()) {
          std::cerr << "perf_compare: --threshold needs a value\n";
          return 2;
        }
        const std::optional<double> value =
            cbs::perf::parse_number(args[i + 1]);
        if (!value || *value < 0.0) {
          std::cerr << "perf_compare: bad number for --threshold: '"
                    << args[i + 1] << "' (want a finite number >= 0)\n";
          return 2;
        }
        threshold = *value;
      }
      return compare(args[1], args[2], threshold);
    }
  } catch (const cbs::perf::ReportError& e) {
    std::cerr << "perf_compare: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
