// scale_stress — throughput + memory smoke for the transfer core at scale
// (ROADMAP item 1's first gate: jobs/sec and peak RSS tracked in CI).
//
// Pushes N jobs through the full upload pipeline — TransferQueueSet (3
// classes, ride-up policy) feeding one noisy diurnal Link — and reports,
// per job count:
//
//   * cpu_time_ns     total CPU nanoseconds for the run (drives jobs/sec)
//   * peak_rss_bytes  getrusage() high-water mark after the run
//
// in the distilled JSON format `tools/perf_compare` consumes, so CI gates
// both rows against the committed bench/BENCH_scale.json. The RSS row is
// the regression tripwire for anything that grows per-job state without
// bound (the capacity-history append-forever bug class).
//
// Usage: scale_stress [--jobs N]... [--json out.json]
//   --jobs may repeat; default sizes are 10000 and 100000 (ascending —
//   ru_maxrss is a process-wide high-water mark, so small sizes must run
//   first to read their own peak).

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "core/upload_queues.hpp"
#include "net/link.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace {

struct RunResult {
  std::size_t jobs = 0;
  double cpu_time_ns = 0.0;
  double peak_rss_bytes = 0.0;
  std::size_t events = 0;
};

double cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1.0e9 +
         static_cast<double>(ts.tv_nsec);
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
}

/// Drives one storm: the owner of the uplink (each finished transfer frees
/// its queue slot and counts) and the target of the arrival stream, which
/// keeps only the next arrival pending, as ScenarioWorld does for batches —
/// so the event queue, and the peak RSS, track live transfers rather than
/// the whole job list.
class Storm : private cbs::net::LinkOwner, private cbs::sim::EventTarget {
 public:
  Storm(cbs::sim::Simulation& sim, std::size_t jobs)
      : sim_(sim),
        target_(sim.register_target(*this)),
        jobs_(jobs),
        link_(sim, *this, 0, uplink_config(),
              cbs::sim::RngStream(42).substream("link")),
        queues_(sim, link_, tuner_, /*transfer_kind=*/0, /*num_classes=*/3) {
    if (jobs_ > 0) schedule_next();
  }

  [[nodiscard]] std::size_t completed() const noexcept { return completed_; }

 private:
  void on_transfer_done(std::size_t /*link*/, std::uint32_t /*kind*/,
                        std::uint64_t tag,
                        const cbs::net::TransferRecord& /*rec*/) override {
    queues_.on_transfer_done(tag);
    ++completed_;
  }

  /// One noisy, diurnal uplink: noise ticks and water-filling churn stay
  /// hot for the whole horizon.
  static cbs::net::LinkConfig uplink_config() {
    cbs::net::LinkConfig cfg;
    cfg.base_rate = 2.0e6;
    cfg.per_connection_cap = 0.25e6;
    cfg.noise_sigma = 0.3;
    cfg.noise_rho = 0.9;
    cfg.noise_step = 15.0;
    cfg.profile = cbs::net::DiurnalProfile::business_pipe();
    cfg.setup_latency = 0.2;
    return cfg;
  }

  /// Draws arrival `next_` and schedules it. Arrivals stream in at a rate
  /// the pipe can absorb, so the queue depth (and thus memory) is
  /// workload-bound, not horizon-bound.
  void schedule_next() {
    bytes_ = rng_.uniform(0.2e6, 4.0e6);
    when_ += rng_.uniform(0.2, 1.5);
    sim_.schedule_at(when_, {target_, 0, next_});
  }

  void on_event(std::uint32_t /*kind*/, std::uint64_t i) override {
    const double bytes = bytes_;
    ++next_;
    if (next_ < jobs_) schedule_next();
    queues_.enqueue(/*tag=*/i + 1, bytes, static_cast<int>(i % 3));
  }

  cbs::sim::Simulation& sim_;
  cbs::sim::TargetId target_;
  std::size_t jobs_;
  cbs::net::ThreadTuner tuner_{{}};
  cbs::net::Link link_;
  cbs::core::TransferQueueSet queues_;
  cbs::sim::RngStream rng_{cbs::sim::RngStream(42).substream("arrivals")};
  std::uint64_t next_ = 0;  ///< index of the pending arrival
  double bytes_ = 0.0;      ///< its size
  double when_ = 0.0;       ///< its time
  std::size_t completed_ = 0;
};

RunResult run_storm(std::size_t jobs) {
  cbs::sim::Simulation sim;
  sim.reserve_events(1024);
  Storm storm(sim, jobs);

  const double t0 = cpu_now_ns();
  sim.run();
  const double t1 = cpu_now_ns();

  RunResult r;
  r.jobs = storm.completed();
  r.cpu_time_ns = t1 - t0;
  r.peak_rss_bytes = peak_rss_bytes();
  r.events = static_cast<std::size_t>(sim.events_processed());
  if (storm.completed() != jobs) {
    std::fprintf(stderr, "scale_stress: expected %zu completions, got %zu\n",
                 jobs, storm.completed());
    std::exit(2);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      sizes.push_back(static_cast<std::size_t>(std::stoull(argv[++i])));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: scale_stress [--jobs N]... [--json out.json]\n");
      return 2;
    }
  }
  if (sizes.empty()) sizes = {10000, 100000};

  std::vector<RunResult> results;
  for (const std::size_t jobs : sizes) {
    const RunResult r = run_storm(jobs);
    results.push_back(r);
    std::printf(
        "scale_stress/%zu: %.0f jobs/sec  cpu=%.1f ms  peak_rss=%.1f MiB  "
        "events=%zu\n",
        jobs, static_cast<double>(r.jobs) / (r.cpu_time_ns * 1.0e-9),
        r.cpu_time_ns * 1.0e-6, r.peak_rss_bytes / (1024.0 * 1024.0),
        r.events);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "scale_stress: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << "    {\"name\": \"scale_stress/" << results[i].jobs
          << "\", \"cpu_time_ns\": " << results[i].cpu_time_ns
          << ", \"peak_rss_bytes\": " << results[i].peak_rss_bytes << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  return 0;
}
