#include "harness/world.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "harness/task_pool.hpp"
#include "models/estimator.hpp"
#include "simcore/rng.hpp"
#include "sla/cost.hpp"
#include "sla/oo_metric.hpp"
#include "sla/report.hpp"
#include "sla/tickets.hpp"
#include "workload/generator.hpp"

namespace cbs::harness {

namespace {

/// The lookahead score's unfinished-job charge, in penalty seconds per job
/// still outstanding at horizon end.
constexpr double kUnfinishedPenaltySeconds = 900.0;
/// Exchange rate folding the cloud bill into penalty seconds.
constexpr double kSecondsPerDollar = 3600.0;

/// The "standard set of production data observed across a variety of
/// locations" (§III.A.1): a uniform corpus, labeled by actually observed
/// (noisy) runtimes. The oracle learns nothing, so it gets no corpus; the
/// labels' draws from truth's own stream are then skipped too, which no
/// run reads (documents take their service noise from their ids).
void pretrain_controller(cbs::core::CloudBurstController& controller,
                         cbs::workload::GroundTruthModel& truth,
                         cbs::core::EstimatorKind estimator,
                         std::size_t samples, cbs::sim::RngStream rng) {
  if (samples == 0 || estimator == cbs::core::EstimatorKind::kOracle) return;
  cbs::workload::WorkloadGenerator corpus_gen(
      {.bucket = cbs::workload::SizeBucket::kUniform}, truth,
      rng.substream("corpus"));
  std::vector<cbs::workload::Document> docs = corpus_gen.batch(samples);
  std::vector<double> runtimes;
  runtimes.reserve(docs.size());
  for (const auto& d : docs) runtimes.push_back(truth.sample_seconds(d.features));
  controller.pretrain(docs, runtimes);
}

/// The scenario's batches, drawn from its "workload" and "arrivals"
/// substreams. The generator reads the truth model only through const
/// calls, so this local copy labels the documents as the controller's
/// would.
std::vector<cbs::workload::Batch> draw_batches(const Scenario& scenario) {
  cbs::sim::RngStream root(scenario.seed);
  const cbs::workload::GroundTruthModel truth(scenario.truth,
                                              root.substream("truth"));
  cbs::workload::WorkloadGenerator generator(
      {.bucket = scenario.bucket}, truth, root.substream("workload"));
  cbs::workload::BatchArrivalProcess arrivals(
      {.batch_interval = scenario.batch_interval_seconds,
       .mean_jobs_per_batch = scenario.mean_jobs_per_batch,
       .num_batches = scenario.num_batches},
      generator, root.substream("arrivals"));
  return arrivals.generate_all();
}

/// The world's own copy of `scenario`: high network variation, when set,
/// raises the noise of every EC site's uplink and downlink — the one place
/// it is applied.
std::shared_ptr<const Scenario> as_built(const Scenario& scenario) {
  auto built = std::make_shared<Scenario>(scenario);
  if (built->high_network_variation) {
    for (cbs::core::EcSiteConfig& site : built->ec_sites) {
      cbs::core::set_link_noise(site.uplink, true);
      cbs::core::set_link_noise(site.downlink, true);
    }
  }
  return built;
}

/// Throws std::invalid_argument naming the first document of `batches`
/// whose id is outside [1, kFirstChunkId) or repeats an earlier one (ids
/// key each document's service noise, so a repeat shares its draw).
void require_unique_ids(const std::vector<cbs::workload::Batch>& batches) {
  using Position = std::pair<std::size_t, std::size_t>;  // batch, document
  std::unordered_map<std::uint64_t, Position> first_seen;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto& docs = batches[b].documents;
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::uint64_t id = docs[i].doc_id;
      const bool in_range = id != 0 && id < cbs::workload::kFirstChunkId;
      const auto [it, fresh] = first_seen.emplace(id, Position{b, i});
      if (in_range && fresh) continue;
      std::ostringstream msg;
      msg << "ScenarioWorld: batch " << b << " document " << i << " doc_id ";
      if (!in_range) {
        msg << "must be in [1, " << cbs::workload::kFirstChunkId << ") (got "
            << id << ")";
      } else {
        msg << id << " repeats batch " << it->second.first << " document "
            << it->second.second;
      }
      throw std::invalid_argument(msg.str());
    }
  }
}

/// Returns `batches`, shared, when a world can schedule them and sample
/// their OO series every `oo_interval` seconds (if that is valid: the
/// scenario check names a bad one); otherwise throws std::invalid_argument
/// naming the first bad arrival or document.
std::shared_ptr<const std::vector<cbs::workload::Batch>> require_runnable(
    std::vector<cbs::workload::Batch> batches, double oo_interval) {
  if (batches.empty()) {
    throw std::invalid_argument("ScenarioWorld: empty batch list");
  }
  const bool oo_valid = std::isfinite(oo_interval) && oo_interval > 0.0;
  double previous = 0.0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const double t = batches[i].arrival_time;
    // Every job completes at or after its arrival, so the OO series runs
    // at least through it.
    const bool sampled = !oo_valid || cbs::sla::series_fits(t, oo_interval);
    if (std::isfinite(t) && t >= previous && sampled) {
      previous = t;
      continue;
    }
    std::ostringstream msg;
    msg << "ScenarioWorld: batch " << i << " arrival_time ";
    if (!std::isfinite(t)) {
      msg << "must be finite (got " << t << ")";
    } else if (t < 0.0) {
      msg << "must be >= 0 (got " << t << ")";
    } else if (t < previous) {
      msg << t << " is earlier than batch " << i - 1 << "'s " << previous;
    } else {
      msg << t << " needs an OO series of " << cbs::sla::kMaxSeriesSamples
          << " samples or more at oo_sampling_interval " << oo_interval;
    }
    throw std::invalid_argument(msg.str());
  }
  require_unique_ids(batches);
  return std::make_shared<const std::vector<cbs::workload::Batch>>(
      std::move(batches));
}

using OutcomeLog = cbs::util::ChunkedLog<cbs::sla::JobOutcome>;

/// The OO metric's o_t (paper Eq. 5–6) evaluated on a *partial* outcome
/// set (a mid-horizon rollout has gaps in the seq-id space, which
/// OoMetricCalculator rejects): the cumulative output MB of completed jobs
/// with id <= m, where m is the largest id with at most `tolerance`
/// missing jobs below it.
double ordered_output_mb(const OutcomeLog& outcomes, std::uint64_t tolerance) {
  if (outcomes.empty()) return 0.0;
  std::uint64_t max_id = 0;
  for (const auto& o : outcomes) max_id = std::max(max_id, o.seq_id);
  std::vector<double> output_by_id(max_id + 1, -1.0);  // -1 = missing
  for (const auto& o : outcomes) output_by_id[o.seq_id] = o.output_mb;
  double ordered = 0.0;
  double running = 0.0;
  std::uint64_t missing = 0;
  for (std::uint64_t id = 1; id <= max_id; ++id) {
    if (output_by_id[id] < 0.0) {
      if (++missing > tolerance) break;
      continue;
    }
    running += output_by_id[id];
    ordered = running;
  }
  return ordered;
}

}  // namespace

// Each public constructor checks what it reads, then delegates: drawing
// reads every scenario field; a given list needs all but the arrival
// fields, and its batches checked. Drawn batches are runnable by
// construction.
ScenarioWorld::ScenarioWorld(const Scenario& scenario)
    : ScenarioWorld(as_built(scenario),
                    std::make_shared<const std::vector<cbs::workload::Batch>>(
                        draw_batches(require_valid(scenario)))) {}

ScenarioWorld::ScenarioWorld(const Scenario& scenario,
                             std::vector<cbs::workload::Batch> batches)
    : ScenarioWorld(as_built(require_valid_except_arrivals(scenario)),
                    require_runnable(std::move(batches),
                                     scenario.oo_sampling_interval)) {}

ScenarioWorld::ScenarioWorld(
    std::shared_ptr<const Scenario> shared_scenario,
    std::shared_ptr<const std::vector<cbs::workload::Batch>> batches)
    : scenario_(std::move(shared_scenario)),
      target_(sim_.register_target(*this)),
      batches_(std::move(batches)) {
  const Scenario& scenario = *scenario_;
  // Substream derivation is a pure function of (parent, name), and drawing
  // the batches touches neither the engine nor the truth's own stream, so
  // this root draws as draw_batches()'s did. The controller owns its copy of
  // the truth; this one only labels the pretrain corpus. The order of the
  // steps below fixes the events' seqs.
  cbs::sim::RngStream root(scenario.seed);
  cbs::workload::GroundTruthModel truth(scenario.truth,
                                        root.substream("truth"));
  controller_ = std::make_unique<cbs::core::CloudBurstController>(
      sim_, scenario, truth, root.substream("system"));
  pretrain_controller(*controller_, truth, scenario.estimator,
                      scenario.pretrain_samples, root.substream("pretrain"));

  // Pre-size the event slab: the pending arrival plus a working set of
  // per-job events for roughly two batches in flight (jobs overlap at the
  // batch boundary, not across the whole horizon).
  std::size_t max_batch_jobs = 0;
  for (const auto& b : *batches_) {
    max_batch_jobs = std::max(max_batch_jobs, b.documents.size());
  }
  sim_.reserve_events(4 * max_batch_jobs + 65);

  // Every arrival keeps the (time, seq) it would have if all were scheduled
  // here, but only the next one is pending at any time (DESIGN §12.2).
  first_arrival_seq_ = sim_.reserve_seqs(batches_->size());
  schedule_arrival(0);
}

ScenarioWorld::ScenarioWorld(const ScenarioWorld& src)
    : scenario_(src.scenario_),
      sim_(src.sim_),
      target_(sim_.register_target(*this, src.target_)),
      controller_(std::make_unique<cbs::core::CloudBurstController>(
          sim_, *src.controller_)),
      batches_(src.batches_),
      first_arrival_seq_(src.first_arrival_seq_),
      rollout_(src.rollout_),
      rollout_kind_(src.rollout_kind_),
      lookahead_choices_(src.lookahead_choices_),
      score_prefix_(src.score_prefix_) {
  sim_.verify_fork();
}

ScenarioWorld::~ScenarioWorld() = default;

cbs::sim::SimTime ScenarioWorld::run() { return sim_.run(); }

cbs::sim::SimTime ScenarioWorld::run_until(cbs::sim::SimTime deadline) {
  return sim_.run_until(deadline);
}

std::size_t ScenarioWorld::pending_arrivals() const {
  return sim_.pending_events_of(target_);
}

void ScenarioWorld::schedule_arrival(std::size_t index) {
  if (index >= batches_->size()) return;
  sim_.schedule_reserved((*batches_)[index].arrival_time,
                         first_arrival_seq_ + index, {target_, 0, index});
}

void ScenarioWorld::on_event(std::uint32_t /*kind*/, std::uint64_t index) {
  deliver_batch(index);
}

void ScenarioWorld::deliver_batch(std::size_t index) {
  // Before anything else, so a lookahead fork taken below carries it.
  schedule_arrival(index + 1);
  const cbs::workload::Batch& batch = (*batches_)[index];
  // Inside a candidate rollout the policy under evaluation persists for
  // every in-horizon arrival, with no nested lookahead; a lookahead run
  // admits under the candidate its decision picks; any other run under
  // its own scheduler.
  cbs::core::SchedulerKind kind = scenario_->scheduler;
  if (rollout_) {
    kind = rollout_kind_;
  } else if (kind == cbs::core::SchedulerKind::kLookahead) {
    if (!lookahead_) {
      LookaheadController::Config cfg;
      cfg.horizon_seconds = scenario_->lookahead_horizon_seconds;
      cfg.candidates = scenario_->lookahead_candidates;
      lookahead_ = std::make_unique<const LookaheadController>(cfg);
    }
    score_prefix_.advance(controller_->outcomes(), scenario_->ticket_policy);
    kind = lookahead_->decide(*this, batch).kind;
    lookahead_choices_.push_back(kind);
  }
  controller_->on_batch(batch, kind);
}

RunResult ScenarioWorld::result() const {
  if (controller_->outstanding_jobs() != 0) {
    throw std::runtime_error("run_scenario: simulation drained with " +
                             std::to_string(controller_->outstanding_jobs()) +
                             " jobs outstanding");
  }
  const cbs::core::CloudBurstController& controller = *controller_;
  const Scenario& scenario = *scenario_;

  RunResult result;
  result.outcomes = controller.outcomes().to_vector();
  const std::string violation = cbs::sla::validate_outcomes(result.outcomes);
  if (!violation.empty()) {
    throw std::runtime_error("run_scenario: outcome invariants violated: " +
                             violation);
  }
  result.scenario = scenario;
  result.sim_end_time = sim_.now();
  result.events_processed = static_cast<std::size_t>(sim_.events_processed());
  result.pull_backs = controller.pull_backs();
  result.push_outs = controller.push_outs();

  // IC first, then the EC sites in order, so a one-site run adds the same
  // terms in the same order as IC + EC and its doubles stay bit-identical.
  const cbs::compute::Cluster& ic = controller.ic_cluster();
  result.faults.ic_crashes = ic.crashes();
  result.faults.reexecutions = ic.reexecutions();
  result.faults.wasted_compute_seconds = ic.wasted_standard_seconds();
  result.faults.drains = ic.drains();
  result.faults.undrains = ic.undrains();
  result.faults.drain_preemptions = ic.drain_preemptions();
  result.faults.idle_crashes_absorbed = ic.idle_crashes_absorbed();
  result.faults.checkpointed_compute_seconds = ic.checkpointed_standard_seconds();
  if (const auto* hazard = controller.ic_hazard()) {
    result.faults.hazard += hazard->stats();
  }
  double ec_busy = 0.0;
  std::size_t ec_machines = 0;
  for (std::size_t i = 0; i < controller.site_count(); ++i) {
    const auto& site = controller.site(i);
    const cbs::compute::Cluster& ec = site.cluster;
    result.peak_store_bytes += site.store.peak_occupancy_bytes();
    result.faults.ec_crashes += ec.crashes();
    result.faults.reexecutions += ec.reexecutions();
    result.faults.wasted_compute_seconds += ec.wasted_standard_seconds();
    result.faults.link_outage_aborts +=
        site.uplink.outage_aborts() + site.downlink.outage_aborts();
    result.faults.wasted_transfer_bytes +=
        site.uplink.wasted_bytes() + site.downlink.wasted_bytes();
    result.faults.store_retries += site.store.failed_attempts();
    result.faults.store_abandoned += site.store.abandoned_ops();
    result.faults.drains += ec.drains();
    result.faults.undrains += ec.undrains();
    result.faults.drain_preemptions += ec.drain_preemptions();
    result.faults.idle_crashes_absorbed += ec.idle_crashes_absorbed();
    result.faults.checkpointed_compute_seconds +=
        ec.checkpointed_standard_seconds();
    if (site.hazard) result.faults.hazard += site.hazard->stats();
    ec_busy += ec.total_busy_time();
    ec_machines += ec.machine_count();
  }
  result.faults.retractions = controller.retractions();
  result.faults.probe_blackout_skips = controller.probe_blackout_skips();
  if (const auto* plan = controller.fault_plan()) {
    result.faults.crashes_injected = plan->crashes_injected();
    result.faults.outages = plan->outages_started();
  }

  result.oo_series = cbs::sla::OoMetricCalculator(result.outcomes)
                          .ordered_mb_series(scenario.oo_sampling_interval,
                                             scenario.oo_tolerance);
  result.report = cbs::sla::build_report(
      std::string(cbs::core::to_string(scenario.scheduler)),
      std::string(cbs::workload::to_string(scenario.bucket)), result.outcomes,
      ic.total_busy_time(), ic.machine_count(), ec_busy, ec_machines,
      result.oo_series, scenario.oo_tolerance);

  result.tickets =
      cbs::sla::evaluate_tickets(result.outcomes, scenario.ticket_policy);
  result.cost =
      cbs::sla::compute_cost(controller.cost_inputs(), scenario.cost_rates);

  if (const auto* qrsm = dynamic_cast<const cbs::models::QrsmEstimator*>(
          &controller.service_estimator());
      qrsm != nullptr && qrsm->model().last_fit()) {
    result.qrsm_r_squared = qrsm->model().last_fit()->r_squared;
    result.qrsm_mape = qrsm->model().last_fit()->mape;
  } else {
    result.qrsm_r_squared = std::nan("");
    result.qrsm_mape = std::nan("");
  }
  return result;
}

std::span<const cbs::core::SchedulerKind>
LookaheadController::candidate_order() {
  static constexpr std::array kOrder{
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::core::SchedulerKind::kGreedy,
      cbs::core::SchedulerKind::kIcOnly,
  };
  static_assert(kOrder.size() == kLookaheadCandidates);
  return kOrder;
}

LookaheadController::LookaheadController(Config config) : config_(config) {
  if (config_.candidates < 1 || config_.candidates > kLookaheadCandidates) {
    std::string msg = "LookaheadController: candidates must be in [1, ";
    msg += std::to_string(kLookaheadCandidates);
    msg += "] (got ";
    msg += std::to_string(config_.candidates);
    msg += ")";
    throw std::invalid_argument(msg);
  }
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  pool_ = std::make_unique<TaskPool>(
      std::min(static_cast<std::size_t>(config_.candidates), threads) - 1);
}

LookaheadController::~LookaheadController() = default;

LookaheadController::Decision LookaheadController::decide(
    const ScenarioWorld& parent, const cbs::workload::Batch& batch) const {
  const auto order = candidate_order();
  const auto count = static_cast<std::size_t>(config_.candidates);

  // One task per candidate, fork included: a fork only reads its parent
  // (DESIGN §12.4), so the chains share nothing they write.
  std::vector<double> scores(count);
  auto roll = [&](std::size_t c) {
    const cbs::core::SchedulerKind kind = order[c];
    std::unique_ptr<ScenarioWorld> rollout = parent.fork();
    rollout->begin_rollout(kind);
    // The decision point's arrival event has already fired in the parent,
    // so the fork never sees it — inject the batch by hand.
    rollout->inject_batch_as(batch, kind);
    rollout->run_until(parent.now() + config_.horizon_seconds);
    scores[c] = score_rollout(*rollout, parent.score_prefix());
  };
  pool_->run(count, roll);

  Decision decision;
  decision.scores.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    decision.scores.emplace_back(order[c], scores[c]);
    if (c == 0 || scores[c] < decision.score) {
      decision.kind = order[c];
      decision.score = scores[c];
    }
  }
  return decision;
}

double LookaheadController::score_world(const ScenarioWorld& world) const {
  const OutcomeLog& outcomes = world.controller().outcomes();
  const cbs::sla::TicketPolicy& policy = world.scenario().ticket_policy;
  double lateness = 0.0;
  for (const auto& o : outcomes) lateness += policy.lateness(o);
  return score_with(world, lateness,
                    ordered_output_mb(outcomes, world.scenario().oo_tolerance));
}

double LookaheadController::score_rollout(const ScenarioWorld& rollout,
                                          const ScorePrefix& prefix) const {
  const OutcomeLog& outcomes = rollout.controller().outcomes();
  const cbs::sla::TicketPolicy& policy = rollout.scenario().ticket_policy;
  // Every id below the frontier is done, so ordered_output_mb()'s walk
  // over ids 1..frontier-1 has already happened in the prefix; resume it
  // at the frontier over the prefix's ids ahead plus the rollout's own.
  const auto fresh = outcomes.iterator_at(prefix.count);
  double lateness = prefix.lateness;
  std::uint64_t max_id =
      prefix.ahead.empty() ? 0 : std::prev(prefix.ahead.end())->first;
  for (auto it = fresh; it != outcomes.end(); ++it) {
    lateness += policy.lateness(*it);
    max_id = std::max(max_id, it->seq_id);
  }
  double running = prefix.ordered_mb;
  if (max_id >= prefix.frontier) {
    std::vector<double> output_by_id(max_id - prefix.frontier + 1, -1.0);
    for (const auto& [id, mb] : prefix.ahead) {
      output_by_id[id - prefix.frontier] = mb;
    }
    for (auto it = fresh; it != outcomes.end(); ++it) {
      output_by_id[it->seq_id - prefix.frontier] = it->output_mb;
    }
    const std::uint64_t tolerance = rollout.scenario().oo_tolerance;
    std::uint64_t missing = 0;
    for (const double mb : output_by_id) {
      if (mb < 0.0) {
        if (++missing > tolerance) break;
        continue;
      }
      running += mb;
    }
  }
  return score_with(rollout, lateness, running);
}

void ScorePrefix::advance(const OutcomeLog& log,
                          const cbs::sla::TicketPolicy& policy) {
  for (auto it = log.iterator_at(count); it != log.end(); ++it) {
    lateness += policy.lateness(*it);
    ahead.emplace(it->seq_id, it->output_mb);
  }
  count = log.size();
  while (!ahead.empty() && ahead.begin()->first == frontier) {
    ordered_mb += ahead.begin()->second;
    ahead.erase(ahead.begin());
    ++frontier;
  }
}

double LookaheadController::score_with(const ScenarioWorld& world,
                                       double lateness,
                                       double ordered_mb) const {
  const double unfinished =
      kUnfinishedPenaltySeconds *
      static_cast<double>(world.controller().outstanding_jobs());
  const cbs::sla::CostReport cost = cbs::sla::compute_cost(
      world.controller().cost_inputs(), world.scenario().cost_rates);
  // Predicted-outage exposure: jobs the horizon-end belief still places on
  // the EC are at risk of a predicted crash; price each at the unfinished
  // penalty times the predicted failure risk. Zero exactly when the hazard
  // predictor is off (ec_failure_risk() is 0), so the score is unchanged.
  const double hazard_exposure =
      world.controller().ec_failure_risk() *
      static_cast<double>(world.controller().outstanding_ec_jobs()) *
      kUnfinishedPenaltySeconds;
  return lateness + unfinished + hazard_exposure +
         kSecondsPerDollar * cost.cloud_total() - ordered_mb;
}

}  // namespace cbs::harness
