// Reproduces Fig. 4: (a) the time-of-day bandwidth variation and the
// autonomic estimator tracking it via periodic 1 MB probes; (b) the number
// of parallel threads the tuner converges to per time of day to keep the
// pipe saturated.
//
// Flags: --seed S (default 99).
#include <cstdint>
#include <cstdio>

#include "harness/cli.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/simulation.hpp"

namespace {

/// The link's owner: it submits each probe at its event, and every
/// finished probe updates the bandwidth estimator and the thread tuner.
class ProbeObserver final : public cbs::net::LinkOwner,
                            public cbs::sim::EventTarget {
 public:
  ProbeObserver(cbs::sim::Simulation& sim,
                cbs::net::BandwidthEstimator& estimator,
                cbs::net::ThreadTuner& tuner)
      : sim_(sim), estimator_(estimator), tuner_(tuner) {}

  /// Probes `link` with `bytes` at times 0, interval, ..., (probes - 1) *
  /// interval, at the tuner-suggested thread count.
  void schedule_probes(cbs::net::Link& link, double bytes, int probes,
                       double interval) {
    link_ = &link;
    probe_bytes_ = bytes;
    const cbs::sim::TargetId target = sim_.register_target(*this);
    for (int i = 0; i < probes; ++i) {
      sim_.schedule_at(i * interval,
                       {target, 0, static_cast<std::uint64_t>(i)});
    }
  }

  void on_event(std::uint32_t /*kind*/, std::uint64_t /*probe*/) override {
    link_->submit(probe_bytes_, tuner_.suggest(sim_.now()), 0, 0);
  }

  void on_transfer_done(std::size_t /*link*/, std::uint32_t /*kind*/,
                        std::uint64_t /*tag*/,
                        const cbs::net::TransferRecord& rec) override {
    estimator_.observe(sim_.now(), rec.transfer_rate());
    tuner_.report(sim_.now(), rec.threads, rec.transfer_rate());
  }

 private:
  cbs::sim::Simulation& sim_;
  cbs::net::BandwidthEstimator& estimator_;
  cbs::net::ThreadTuner& tuner_;
  cbs::net::Link* link_ = nullptr;
  double probe_bytes_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace cbs;
  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  sim::Simulation simulation;
  sim::RngStream root(harness::cli::seed_from_args(args, 99));

  net::LinkConfig cfg;
  cfg.base_rate = 1.3e6;
  cfg.per_connection_cap = 250.0e3;
  cfg.profile = net::DiurnalProfile::business_pipe();
  cfg.noise_rho = 0.9;
  cfg.noise_sigma = 0.15;
  cfg.setup_latency = 0.3;

  net::BandwidthEstimator::Config est_cfg;
  est_cfg.slots_per_day = 24;  // hourly, to match the figure
  est_cfg.prior_rate = 1.0e6;
  net::BandwidthEstimator estimator(est_cfg);

  net::ThreadTuner::Config tuner_cfg;
  tuner_cfg.slots_per_day = 24;
  tuner_cfg.initial_threads = 2;
  tuner_cfg.max_threads = 16;
  net::ThreadTuner tuner(tuner_cfg);
  ProbeObserver observer(simulation, estimator, tuner);
  net::Link link(simulation, observer, 0, cfg, root.substream("link"));

  // Probe every 4 minutes for two simulated days: a big transfer (8 MB)
  // measures the achievable rate at the tuner-suggested thread count.
  const double probe_bytes = 8.0e6;
  const double interval = 240.0;
  const int probes = static_cast<int>(2.0 * sim::kDay / interval);
  observer.schedule_probes(link, probe_bytes, probes, interval);
  simulation.run();

  std::printf("=== Fig. 4a: time-of-day bandwidth model ===\n\n");
  std::printf("%6s %16s %16s %16s\n", "hour", "true base KB/s", "estimate KB/s",
              "profile mult");
  for (std::size_t h = 0; h < 24; ++h) {
    const double t = static_cast<double>(h) * sim::kHour + 1800.0;
    const double mult = cfg.profile.multiplier_at(t);
    std::printf("%6zu %16.0f %16.0f %16.2f\n", h, cfg.base_rate * mult / 1e3,
                estimator.slot_estimate(h) / 1e3, mult);
  }

  std::printf("\n=== Fig. 4b: tuned parallel threads per time of day ===\n\n");
  std::printf("(pipe saturates at ~ base*multiplier / %0.0f KB per connection)\n",
              cfg.per_connection_cap / 1e3);
  std::printf("%6s %10s %18s\n", "hour", "threads", "ideal (capacity/cap)");
  for (std::size_t h = 0; h < 24; ++h) {
    const double t = static_cast<double>(h) * sim::kHour + 1800.0;
    const double capacity = cfg.base_rate * cfg.profile.multiplier_at(t);
    std::printf("%6zu %10d %18.1f\n", h, tuner.best_for_slot(h),
                capacity / cfg.per_connection_cap);
  }

  std::printf("\nestimator observations: %zu, link delivered %.1f MB\n",
              estimator.observation_count(), link.total_bytes_delivered() / 1e6);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
