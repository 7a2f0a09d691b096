// One run of one benchmark workload, in a process of its own so that peak
// RSS belongs to that run alone. Prints one JSON object on stdout; run.py
// starts these processes and aggregates them.
//
//   perfbench_world --workload NAME --seed N [--mode timed|traced]
//                   [--spans PATH]
//
// Either mode builds the world kSetupReps times and runs the last one.
// timed:  the sliced run (run_until at each batch arrival, then run()).
// traced: the sliced run with spans, probes and replays; --spans writes
//         the spans as Chrome trace-event JSON.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "world_bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace {

/// World constructions per process. Each is timed for setup_s; the repeats
/// also grow the heap, so the run that follows does not pay first-touch page
/// faults that a long-lived host process would not pay either.
constexpr int kSetupReps = 11;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string header(const cbs::harness::Scenario& s, const std::string& mode) {
  return "\"workload\": " + json_string(s.name) +
         ", \"seed\": " + std::to_string(s.seed) +
         ", \"batches\": " + std::to_string(s.num_batches) +
         ", \"mode\": " + json_string(mode) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
}

std::string timed_json(const cbs::harness::Scenario& s,
                       const perfbench::TimedRun& r) {
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ", ") + num(v[i]);
    }
    return out + "]";
  };
  return "{" + header(s, "timed") + ", \"error\": " + json_string(r.error) +
         ", \"documents\": " + std::to_string(r.documents) +
         ", \"jobs\": " + std::to_string(r.jobs) +
         ", \"setup_s\": " + list(r.setup_s) +
         ", \"run_s\": " + num(r.run_s) + ", \"result_s\": " + num(r.result_s) +
         ", \"slice_ms\": " + list(r.slice_ms) +
         ", \"peak_rss_mib\": " + num(peak_rss_mib()) +
         ", \"outcome_digest\": " + hex(r.outcome_digest) +
         ", \"sim_digest\": " + hex(r.sim_digest) + ", \"sim\": {" +
         "\"sim.ticket_hit_rate\": " + num(r.sim.ticket_hit_rate) +
         ", \"sim.p95_lateness_s\": " + num(r.sim.p95_lateness_s) +
         ", \"sim.cloud_cost_usd\": " + num(r.sim.cloud_cost_usd) +
         ", \"sim.oo_final_mb\": " + num(r.sim.oo_final_mb) +
         ", \"sim.makespan_s\": " + num(r.sim.makespan_s) + "}}";
}

bool write_spans(const std::string& path,
                 const std::vector<perfbench::Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}",
                 i == 0 ? "" : ",\n", json_string(s.name).c_str(), s.start_us,
                 s.end_us - s.start_us, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string traced_json(const cbs::harness::Scenario& s,
                        const perfbench::TracedRun& r) {
  std::string metrics = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    metrics += (i == 0 ? "" : ", ") + json_string(r.metrics[i].first) + ": " +
               num(r.metrics[i].second);
  }
  metrics += "}";
  return "{" + header(s, "traced") + ", \"error\": " + json_string(r.error) +
         ", \"jobs_per_s\": " + num(r.jobs_per_s) +
         ", \"outcome_digest\": " + hex(r.outcome_digest) +
         ", \"peak_rss_mib\": " + num(peak_rss_mib()) +
         ", \"metrics\": " + metrics + "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_world --workload NAME --seed N "
               "[--mode timed|traced] [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " takes a non-negative whole number, got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "timed";
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_count(flag, value);
      have_seed = true;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (mode != "timed" && mode != "traced") {
    usage("unknown mode " + mode);
  }
  cbs::harness::Scenario scenario;
  try {
    scenario = perfbench::make_workload(workload, seed);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  if (mode == "traced") {
    const perfbench::TracedRun r = perfbench::traced_run(scenario, kSetupReps);
    if (!spans_path.empty() && !write_spans(spans_path, r.spans)) {
      std::fprintf(stderr, "error: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("%s\n", traced_json(scenario, r).c_str());
    return r.error.empty() ? 0 : 1;
  }
  const perfbench::TimedRun r =
      perfbench::timed_run(scenario, kSetupReps, perfbench::Drive::kSliced);
  std::printf("%s\n", timed_json(scenario, r).c_str());
  return r.error.empty() ? 0 : 1;
}
