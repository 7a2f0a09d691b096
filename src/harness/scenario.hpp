#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sla/tickets.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::harness {

/// The most documents a drawn workload may hold on average, max(λ, 1) ×
/// num_batches: far above any run here (40000 batches × λ 15 ≈ 6×10^5
/// documents), far below what exhausts memory and the 2^32 input-id space
/// (workload::kFirstChunkId).
inline constexpr std::size_t kMaxDrawnDocuments = 4'000'000;

/// The latest simulated time a run may need to reach: the last arrival
/// plus the lookahead horizon. About 32 years, far past any run here
/// (40000 batches × 180 s ≈ 7×10^6 s), and small enough that a clock
/// reading keeps the resolution the link's completion check needs: at
/// 10^9 s one ulp is 1.2×10^-7 s, so a 10^8 B/s transfer due then is off by
/// about 12 bytes, inside the 10^-3 × size tolerance of its smallest (1 MB)
/// transfers. At 10^15 s that check aborted.
inline constexpr double kMaxSimSeconds = 1.0e9;

/// The length of the lookahead's candidate priority order
/// (LookaheadController::candidate_order()).
inline constexpr int kLookaheadCandidates = 3;

/// A complete experiment description: a controller configuration (the
/// hybrid test bed and its scheduler) plus the workload, network regime,
/// SLA and lookahead fields of one run. Every setting has exactly one
/// field; callers set the controller's directly (`s.ec_sites = {...}`,
/// `s.elastic_ec.enabled = true`). Two scenarios with the same seed and
/// workload fields face byte-identical arrivals and service times, so
/// scheduler comparisons are paired.
struct Scenario : cbs::core::ControllerConfig {
  /// The calibrated single-EC test bed of §V.A
  /// (core::default_controller_config()).
  Scenario()
      : cbs::core::ControllerConfig(cbs::core::default_controller_config()) {}

  std::string name = "scenario";
  std::uint64_t seed = 42;

  // Workload (§V.A defaults: λ=15 jobs per 3-minute batch, 1–300 MB docs).
  cbs::workload::SizeBucket bucket = cbs::workload::SizeBucket::kUniform;
  std::size_t num_batches = 8;
  double mean_jobs_per_batch = 15.0;
  double batch_interval_seconds = 180.0;
  cbs::workload::GroundTruthModel::Config truth{};

  /// Fig. 9/10's network regime: a world built from this scenario gives
  /// every EC site's uplink and downlink the long congestion epochs of
  /// core::set_link_noise(link, true), whatever their noise fields say.
  bool high_network_variation = false;

  // QRSM factory prior: corpus size used for pretraining (0 disables; the
  // oracle learns nothing and draws no corpus).
  std::size_t pretrain_samples = 120;

  // Model-predictive lookahead (scheduler == kLookahead): at every batch
  // arrival the world is forked once per candidate policy, each fork is
  // rolled `lookahead_horizon_seconds` forward, and the batch is committed
  // under the best-scoring candidate. The candidate list is a fixed
  // priority order (order-preserving, greedy, ic-only) truncated to
  // `lookahead_candidates`, which must be in [1, kLookaheadCandidates].
  double lookahead_horizon_seconds = 900.0;
  int lookahead_candidates = 3;

  // OO metric parameters (§V.B.2: 2-minute sampling; Fig. 10: t_l = 4).
  double oo_sampling_interval = 120.0;
  std::uint64_t oo_tolerance = 4;

  // Ticket SLA (§I) evaluated on every run, and scored by the lookahead
  // policy with the pay-as-you-go bill (sla/cost.hpp).
  cbs::sla::TicketPolicy ticket_policy{};

  /// One named error per value no run can use: no batches, a non-positive
  /// or infinite arrival rate or batch interval, more documents than
  /// kMaxDrawnDocuments, a last arrival past what the OO series can sample
  /// (sla::kMaxSeriesSamples) or, with the lookahead horizon added, past
  /// kMaxSimSeconds, a non-positive OO sampling interval, a
  /// negative or non-finite noise sigma or fault field, and every
  /// ControllerConfig field a constructor of the controller's parts
  /// asserts on (cluster sizes and speeds, link rates and noise, the
  /// bandwidth prior, the slack margin). Empty when the scenario is
  /// runnable.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// validate() without its arrival checks (those of num_batches,
  /// mean_jobs_per_batch and batch_interval_seconds): only drawing the
  /// batches reads those, so a world given its batches checks just these.
  [[nodiscard]] std::vector<std::string> validate_except_arrivals() const;
};

/// Returns `scenario` when validate() finds nothing; otherwise throws
/// std::invalid_argument listing every error.
const Scenario& require_valid(const Scenario& scenario);

/// require_valid() over validate_except_arrivals().
const Scenario& require_valid_except_arrivals(const Scenario& scenario);

/// Named constructor for the §V experiment grid.
[[nodiscard]] Scenario make_scenario(cbs::core::SchedulerKind scheduler,
                                     cbs::workload::SizeBucket bucket,
                                     std::uint64_t seed = 42,
                                     bool high_network_variation = false);

}  // namespace cbs::harness
