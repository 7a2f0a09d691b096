#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "models/hazard.hpp"
#include "net/link.hpp"
#include "simcore/fault_plan.hpp"
#include "simcore/logging.hpp"
#include "simcore/time.hpp"

namespace cbs::core {

/// Which burst scheduler drives the run (§IV).
enum class SchedulerKind : std::uint8_t {
  kIcOnly,           ///< baseline: never burst
  kGreedy,           ///< Algorithm 1
  kOrderPreserving,  ///< Algorithm 2
  kBandwidthSplit,   ///< Algorithm 2 + Algorithm 3 (size-interval splitting)
  kRandom,           ///< model-free baseline (§III cites [8]'s random scheduler)
  kLookahead,        ///< model-predictive: fork the sim, roll candidates forward
};

[[nodiscard]] std::string_view to_string(SchedulerKind kind) noexcept;

/// Which processing-time estimator the scheduler consults.
enum class EstimatorKind : std::uint8_t {
  kQrsm,          ///< the paper's learned model (production path)
  kOracle,        ///< ground-truth expectation (perfect-information ablation)
  kPerClassQrsm,  ///< one surface per job class (§III.A.1 future work)
};

/// Tunables of the scheduling policies.
struct SchedulerParams {
  /// Algorithm 2: the threshold th (MB of standard deviation of the
  /// look-ahead window's sizes) above which the head job is chunked.
  double variability_threshold_mb = 55.0;
  /// Safety margin τ subtracted from the slack before admitting a burst —
  /// the Order Preserving scheduler targets finishing τ early (§IV), which
  /// is what buys its robustness to bandwidth dips.
  cbs::sim::SimDuration slack_safety_margin = 30.0;
};

/// One external cloud site: its cluster and its own pipe. The default is
/// the paper's single EC (§V.A: 2 EMR VMs); several sites form the pool of
/// providers the intro and §VII meta-brokering have in mind ("one could
/// possibly choose from a pool of Cloud Providers at run-time depending on
/// the input job's SLAs").
struct EcSiteConfig {
  std::string name = "ec";
  std::size_t machines = 2;
  double speed = 1.0;
  /// Fixed per-job overhead (S3 staging, EMR job setup and task
  /// scheduling) — machine-occupying time added to every job on this site.
  /// This is what makes bursting a small job unattractive when the
  /// internal queue is short.
  double job_overhead_seconds = 30.0;
  cbs::net::LinkConfig uplink{};
  cbs::net::LinkConfig downlink{};
};

/// §V.B.4 future work: elastic scaling of the external cloud — "the
/// scaling (at EC) must be just enough to ensure saturation of the
/// download bandwidth". A periodic autonomic check grows each EC site
/// while work queues behind it, up to `max_machines`, and shrinks it when
/// more than half its instances idle with an empty queue, down to one.
struct ElasticEcConfig {
  bool enabled = false;
  std::size_t max_machines = 8;
};

/// Proactive failure resilience: an online per-VM hazard predictor
/// (models/hazard.hpp) feeding three controller policies — pre-emptive
/// drain of high-hazard machines (the task running there is
/// checkpoint-restarted), risk-weighted burst pricing (believed EC round
/// trips inflate with predicted failure probability, which every
/// scheduler consumes through BeliefState), and hazard-shortened burst
/// retraction deadlines. Default-constructed = predictor off: nothing is
/// built, no estimate changes, runs stay byte-identical.
struct ResilienceConfig {
  cbs::models::HazardModelConfig hazard{};
  /// Drain a machine once its predicted failure probability within the
  /// controller's 600 s drain window reaches this; it is undrained when the
  /// probability falls back below. Drains are soft: dispatch avoids the
  /// machine while a healthy one is free, but never stalls the queue
  /// (compute::Cluster::drain_machine).
  double drain_threshold = 0.35;

  [[nodiscard]] bool enabled() const noexcept {
    return hazard.kind != cbs::models::HazardPredictorKind::kOff;
  }
};

/// The full controller configuration.
struct ControllerConfig {
  SchedulerKind scheduler = SchedulerKind::kOrderPreserving;
  EstimatorKind estimator = EstimatorKind::kQrsm;
  SchedulerParams params{};

  /// The internal cloud's speed-1 VMs (§V.A: 8). Each job runs as one map
  /// task and one merge task (Fig. 2): parallelism comes from concurrent
  /// jobs and Algorithm 2's pdfchunk.
  std::size_t ic_machines = 8;

  /// The external sites, one Fig. 5 EC pipeline each; at least one (an
  /// empty list is rejected at construction). Site 0 is the paper's EC.
  std::vector<EcSiteConfig> ec_sites{EcSiteConfig{}};

  /// Bytes/s each site's bandwidth estimator believes before its first
  /// observation (net::BandwidthEstimator::Config::prior_rate).
  double bandwidth_prior_rate = 250.0e3;

  /// Period of the 1 MB bandwidth probes (§III.A.2); 0 disables probing.
  cbs::sim::SimDuration probe_interval = 150.0;

  /// §IV.D rescheduling strategies (paper future work; off by default).
  bool enable_rescheduler = false;

  ElasticEcConfig elastic_ec{};

  /// Fault injection and burst-retraction recovery. Default-constructed =
  /// fully disabled and zero-cost: no FaultPlan is built, no events are
  /// scheduled, runs are byte-identical to a fault-free build.
  cbs::sim::FaultConfig faults{};

  /// Proactive failure resilience (hazard prediction + drains). Disabled by
  /// default; zero-cost and byte-identical when off.
  ResilienceConfig resilience{};

  /// Record every job's pipeline-stage transitions (Fig. 5 observability);
  /// costs memory proportional to jobs x stages, so off by default.
  bool record_stage_log = false;

  /// Per-run logging. Every controller owns its Logger, so concurrent
  /// runs (the parallel experiment runner) never share mutable logging
  /// state. At the default threshold only warnings and above reach
  /// stderr.
  cbs::sim::LogLevel log_threshold = cbs::sim::LogLevel::kWarn;
};

/// Returns a config calibrated so that mean transfer time is of the order
/// of mean processing time on the default workload — the regime the paper
/// studies, with the normal noise regime on its links
/// (harness::Scenario::high_network_variation raises it for Fig. 9/10).
[[nodiscard]] ControllerConfig default_controller_config();

/// Sets `link`'s AR(1) noise to the normal regime or, with
/// `high_network_variation`, to the long congestion epochs of Fig. 9/10.
void set_link_noise(cbs::net::LinkConfig& link, bool high_network_variation);

}  // namespace cbs::core
