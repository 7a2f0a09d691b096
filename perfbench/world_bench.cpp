#include "world_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "harness/experiment.hpp"
#include "harness/world.hpp"
#include "models/estimator.hpp"
#include "models/qrsm.hpp"
#include "simcore/rng.hpp"
#include "sla/metrics.hpp"
#include "sla/oo_metric.hpp"
#include "sla/report.hpp"
#include "sla/tickets.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using cbs::harness::RunResult;
using cbs::harness::Scenario;
using cbs::harness::ScenarioWorld;
using cbs::sla::JobOutcome;
using cbs::workload::Batch;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

SimMetrics sim_metrics(const RunResult& r) {
  return {r.tickets.hit_rate, r.tickets.p95_lateness, r.cost.cloud_total(),
          r.report.oo_final_mb, r.report.makespan_seconds};
}

std::uint64_t sim_digest(const SimMetrics& m) {
  Fnv1a h;
  for (const double v : {m.ticket_hit_rate, m.p95_lateness_s, m.cloud_cost_usd,
                         m.oo_final_mb, m.makespan_s}) {
    h.add(v);
  }
  return h.value();
}

std::vector<std::uint64_t> sorted_doc_ids(const std::vector<Batch>& batches) {
  std::vector<std::uint64_t> ids;
  for (const Batch& b : batches) {
    for (const auto& d : b.documents) ids.push_back(d.doc_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Index of `id` in the sorted `ids`, or ids.size() when absent.
std::size_t find_id(const std::vector<std::uint64_t>& ids, std::uint64_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id
             ? static_cast<std::size_t>(it - ids.begin())
             : ids.size();
}

/// The features fed to the QRSM replay for each outcome. No public accessor
/// keeps a chunk's own features, so a chunk takes those of the first
/// document of its batch that did not complete whole, scaled to the chunk's
/// size. The values move the fitted coefficients, not the cost of a fit.
std::vector<cbs::workload::DocumentFeatures> replay_features(
    const std::vector<Batch>& batches,
    const std::vector<JobOutcome>& outcomes) {
  const std::vector<std::uint64_t> ids = sorted_doc_ids(batches);
  std::vector<bool> whole(ids.size(), false);
  for (const JobOutcome& o : outcomes) {
    const std::size_t i = find_id(ids, o.doc_id);
    if (i < ids.size()) whole[i] = true;
  }
  std::vector<const cbs::workload::Document*> by_index(ids.size(), nullptr);
  std::vector<const cbs::workload::Document*> first_split(batches.size(),
                                                          nullptr);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const auto& d : batches[b].documents) {
      const std::size_t i = find_id(ids, d.doc_id);
      by_index[i] = &d;
      if (!whole[i] && first_split[b] == nullptr) first_split[b] = &d;
    }
  }
  std::vector<cbs::workload::DocumentFeatures> features(outcomes.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const JobOutcome& o = outcomes[k];
    const std::size_t i = find_id(ids, o.doc_id);
    if (i < ids.size()) {
      features[k] = by_index[i]->features;
      continue;
    }
    const cbs::workload::Document* parent =
        o.batch_index < batches.size() ? first_split[o.batch_index] : nullptr;
    cbs::workload::DocumentFeatures f;
    if (parent != nullptr && parent->features.size_mb > 0.0) {
      f = parent->features;
      const double share = o.input_mb / parent->features.size_mb;
      f.pages = std::max(1, static_cast<int>(std::lround(f.pages * share)));
      f.num_images = static_cast<int>(std::lround(f.num_images * share));
    }
    f.size_mb = o.input_mb;
    features[k] = f;
  }
  return features;
}

/// A span recorder for the traced run. Spans stay in memory until the run
/// ends.
class Tracer {
 public:
  int begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, now_us(), 0.0});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its length in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return (s.end_us - s.start_us) * 1.0e-6;
  }
  [[nodiscard]] std::vector<Span> take() { return std::move(spans_); }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct QrsmReplay {
  double observe_s = 0.0;
  std::size_t refits = 0;
  double refit_s = 0.0;
  double predict_ns = 0.0;
  double pretrain_fit_s = 0.0;
};

/// Replays the run's QRSM call stream: fit on the pretrain corpus (drawn
/// from the same RNG substreams the world uses), then one observe per
/// completed job in completion order, then predict over the workload.
QrsmReplay replay_qrsm(const Scenario& scenario,
                       const std::vector<Batch>& batches,
                       const std::vector<JobOutcome>& outcomes,
                       Tracer& tracer) {
  QrsmReplay out;
  const cbs::sim::RngStream root(scenario.seed);
  cbs::workload::GroundTruthModel truth(scenario.truth,
                                        root.substream("truth"));
  cbs::workload::WorkloadGenerator::Config corpus_cfg;
  corpus_cfg.bucket = cbs::workload::SizeBucket::kUniform;
  cbs::workload::WorkloadGenerator corpus_gen(
      corpus_cfg, truth, root.substream("pretrain").substream("corpus"));
  std::vector<cbs::workload::DocumentFeatures> corpus;
  std::vector<double> runtimes;
  for (const auto& d : corpus_gen.batch(scenario.pretrain_samples)) {
    corpus.push_back(d.features);
    runtimes.push_back(truth.sample_seconds(d.features));
  }

  cbs::models::QrsmModel model;
  int span = tracer.begin("qrsm.fit");
  model.fit(corpus, runtimes);
  out.pretrain_fit_s = tracer.end(span);

  const std::vector<cbs::workload::DocumentFeatures> features =
      replay_features(batches, outcomes);
  std::vector<std::size_t> order(outcomes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return outcomes[a].completed != outcomes[b].completed
               ? outcomes[a].completed < outcomes[b].completed
               : outcomes[a].seq_id < outcomes[b].seq_id;
  });
  const auto fit_key = [&model] {
    return model.last_fit() ? std::make_pair(model.last_fit()->r_squared,
                                             model.last_fit()->rmse)
                            : std::make_pair(std::nan(""), std::nan(""));
  };
  span = tracer.begin("qrsm.observe_stream");
  for (const std::size_t k : order) {
    const auto before = fit_key();
    const auto t0 = Clock::now();
    model.observe(features[k], outcomes[k].true_service_seconds);
    const double dt = seconds_between(t0, Clock::now());
    out.observe_s += dt;
    if (fit_key() != before) {
      ++out.refits;
      out.refit_s += dt;
    }
  }
  tracer.end(span);

  span = tracer.begin("qrsm.predict");
  double sum = 0.0;
  std::size_t calls = 0;
  for (const Batch& b : batches) {
    for (const auto& d : b.documents) {
      sum += model.predict(d.features);
      ++calls;
    }
  }
  const double predict_s = tracer.end(span);
  if (!std::isfinite(sum)) {
    throw std::runtime_error("QRSM replay predicted a non-finite time");
  }
  out.predict_ns =
      calls == 0 ? 0.0 : predict_s * 1.0e9 / static_cast<double>(calls);
  return out;
}

double mean_of(const std::vector<double>& v, std::size_t from, std::size_t to) {
  if (to <= from) return 0.0;
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(from),
                         v.begin() + static_cast<std::ptrdiff_t>(to), 0.0) /
         static_cast<double>(to - from);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "op_qrsm_knee", "greedy_faults_overload", "lookahead_fork"};
  return kNames;
}

Scenario make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t batches) {
  using cbs::core::EstimatorKind;
  using cbs::core::SchedulerKind;
  const auto bucket = cbs::workload::SizeBucket::kUniform;
  Scenario s;
  if (name == "op_qrsm_knee") {
    // The paper's production path just below saturation: most tickets
    // met, bursting active, QRSM refits taking most of the host time.
    s = cbs::harness::make_scenario(SchedulerKind::kOrderPreserving, bucket,
                                    seed);
    s.estimator = EstimatorKind::kQrsm;
    s.mean_jobs_per_batch = 12.0;
    s.num_batches = 1000;
  } else if (name == "greedy_faults_overload") {
    // A deep backlog under L2 faults: retractions, re-admission, crashes,
    // hazard drains and a long OO series. The oracle bypasses the QRSM.
    s = cbs::harness::make_scenario(SchedulerKind::kGreedy, bucket, seed);
    s.estimator = EstimatorKind::kOracle;
    s.mean_jobs_per_batch = 15.0;
    s.num_batches = 2000;
    s.faults.ec_vm_mtbf = 1200.0;
    s.faults.ic_vm_mtbf = 6000.0;
    s.faults.retraction_deadline_factor = 3.0;
    s.resilience.hazard.kind = cbs::models::HazardPredictorKind::kEwma;
  } else if (name == "lookahead_fork") {
    // Every decision forks the whole world once per candidate, so the cost
    // of copying history dominates. The oracle bypasses the QRSM.
    s = cbs::harness::make_scenario(SchedulerKind::kLookahead, bucket, seed);
    s.estimator = EstimatorKind::kOracle;
    s.mean_jobs_per_batch = 15.0;
    s.num_batches = 400;
    s.lookahead_horizon_seconds = 900.0;
    s.lookahead_candidates = 3;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  s.name = name;
  // Fault workloads log every outage at warning level; keep stderr clean.
  s.log_threshold = cbs::sim::LogLevel::kError;
  if (batches != 0) s.num_batches = batches;
  return s;
}

std::uint64_t outcome_digest(const std::vector<JobOutcome>& outcomes) {
  std::vector<const JobOutcome*> by_seq;
  by_seq.reserve(outcomes.size());
  for (const JobOutcome& o : outcomes) by_seq.push_back(&o);
  std::sort(by_seq.begin(), by_seq.end(),
            [](const JobOutcome* a, const JobOutcome* b) {
              return a->seq_id < b->seq_id;
            });
  Fnv1a h;
  for (const JobOutcome* o : by_seq) {
    h.add(o->seq_id);
    h.add(o->completed);
    h.add(static_cast<std::uint8_t>(o->placement));
  }
  return h.value();
}

std::string check_conservation(const std::vector<Batch>& batches,
                               const std::vector<JobOutcome>& outcomes) {
  const std::vector<std::uint64_t> ids = sorted_doc_ids(batches);
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "the workload holds a document id twice";
  }
  std::vector<int> completed(ids.size(), 0);
  std::vector<std::size_t> chunk_jobs(batches.size(), 0);
  std::vector<double> chunk_mb(batches.size(), 0.0);
  for (const JobOutcome& o : outcomes) {
    if (o.batch_index >= batches.size()) {
      return "job " + std::to_string(o.seq_id) + " names batch " +
             std::to_string(o.batch_index) + " of " +
             std::to_string(batches.size());
    }
    const std::size_t i = find_id(ids, o.doc_id);
    if (i == ids.size()) {
      ++chunk_jobs[o.batch_index];
      chunk_mb[o.batch_index] += o.input_mb;
    } else if (++completed[i] > 1) {
      return "document " + std::to_string(o.doc_id) + " completed twice";
    }
  }
  // A document that did not complete whole was split into chunks: at least
  // two chunk jobs each, carrying at least its bytes (chunks add overhead).
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::size_t split = 0;
    double split_mb = 0.0;
    for (const auto& d : batches[b].documents) {
      if (completed[find_id(ids, d.doc_id)] == 0) {
        ++split;
        split_mb += d.features.size_mb;
      }
    }
    if ((split == 0) != (chunk_jobs[b] == 0) || chunk_jobs[b] < 2 * split ||
        chunk_mb[b] < split_mb * (1.0 - 1.0e-9)) {
      return "batch " + std::to_string(b) + ": " + std::to_string(split) +
             " documents did not complete whole, but " +
             std::to_string(chunk_jobs[b]) + " chunk jobs carry " +
             std::to_string(chunk_mb[b]) + " of their " +
             std::to_string(split_mb) + " MB";
    }
  }
  return "";
}

TimedRun timed_run(const Scenario& scenario, int setup_reps, Drive drive) {
  TimedRun out;
  try {
    std::unique_ptr<ScenarioWorld> world;
    for (int i = 0; i < std::max(1, setup_reps); ++i) {
      world.reset();
      const auto t0 = Clock::now();
      world = std::make_unique<ScenarioWorld>(scenario);
      out.setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    const std::vector<Batch>& batches = world->batches();
    const auto run_start = Clock::now();
    if (drive == Drive::kSliced) {
      out.slice_ms.reserve(batches.size() + 1);
      auto t = run_start;
      const auto lap = [&] {
        const auto now = Clock::now();
        out.slice_ms.push_back(1.0e3 * seconds_between(t, now));
        t = now;
      };
      for (const Batch& b : batches) {
        world->run_until(b.arrival_time);
        lap();
      }
      world->run();
      lap();
    } else {
      world->run();
    }
    const auto run_end = Clock::now();
    out.run_s = seconds_between(run_start, run_end);
    const RunResult result = world->result();
    out.result_s = seconds_between(run_end, Clock::now());

    for (const Batch& b : batches) out.documents += b.documents.size();
    out.jobs = result.outcomes.size();
    out.outcome_digest = outcome_digest(result.outcomes);
    out.sim = sim_metrics(result);
    out.sim_digest = sim_digest(out.sim);
    out.error = check_conservation(batches, result.outcomes);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

TracedRun traced_run(const Scenario& scenario, int setup_reps) {
  TracedRun out;
  Tracer tracer;
  try {
    int span = -1;
    std::unique_ptr<ScenarioWorld> world;
    for (int i = 0; i < std::max(1, setup_reps); ++i) {
      world.reset();
      span = tracer.begin("setup");
      world = std::make_unique<ScenarioWorld>(scenario);
      tracer.end(span);
    }
    const std::vector<Batch>& batches = world->batches();
    const std::size_t n = batches.size();

    cbs::harness::LookaheadController::Config la_cfg;
    la_cfg.horizon_seconds = scenario.lookahead_horizon_seconds;
    la_cfg.candidates = scenario.lookahead_candidates;
    const cbs::harness::LookaheadController lookahead(la_cfg);

    // Probes at the middle and final batch fork the live world and run a
    // lookahead decision on it; both results are discarded. The decision
    // re-admits the batch just delivered into each rollout, which is
    // harmless there (store keys are per job) and costs what a real one does.
    std::vector<double> slice_s;
    slice_s.reserve(n + 1);
    double probe_s = 0.0;
    double fork_s = 0.0;
    double decide_s = 0.0;
    int probes = 0;
    const int run = tracer.begin("run");
    for (std::size_t i = 0; i < n; ++i) {
      span = tracer.begin("slice", run);
      world->run_until(batches[i].arrival_time);
      slice_s.push_back(tracer.end(span));
      if (i != n / 2 && i + 1 != n) continue;
      const int probe = tracer.begin("probe", run);
      {
        span = tracer.begin("fork", probe);
        const std::unique_ptr<ScenarioWorld> fork = world->fork();
        fork_s += tracer.end(span);
      }
      span = tracer.begin("decide", probe);
      static_cast<void>(lookahead.decide(*world, batches[i]));
      decide_s += tracer.end(span);
      probe_s += tracer.end(probe);
      ++probes;
    }
    span = tracer.begin("drain", run);
    world->run();
    tracer.end(span);
    const double run_s = tracer.end(run) - probe_s;

    span = tracer.begin("result");
    const RunResult result = world->result();
    const double result_s = tracer.end(span);
    out.outcome_digest = outcome_digest(result.outcomes);
    out.error = check_conservation(batches, result.outcomes);
    out.jobs_per_s =
        static_cast<double>(result.outcomes.size()) / (run_s + result_s);

    // The SLA functions result() calls, on the run's own outcomes.
    const auto& outcomes = result.outcomes;
    const auto& ctl = world->controller();
    span = tracer.begin("sla.oo_series");
    const cbs::sla::OoMetricCalculator oo(outcomes);
    const cbs::stats::TimeSeries series = oo.ordered_mb_series(
        scenario.oo_sampling_interval, scenario.oo_tolerance);
    const double oo_series_s = tracer.end(span);
    span = tracer.begin("sla.report");
    const cbs::sla::SlaReport report = cbs::sla::build_report(
        std::string(cbs::core::to_string(scenario.scheduler)),
        std::string(cbs::workload::to_string(scenario.bucket)), outcomes,
        ctl.ic_cluster().total_busy_time(), ctl.ic_cluster().machine_count(),
        ctl.ec_cluster().total_busy_time(), ctl.ec_cluster().machine_count(),
        scenario.oo_sampling_interval, scenario.oo_tolerance);
    const double report_s = tracer.end(span);
    span = tracer.begin("sla.tickets");
    const cbs::sla::TicketReport tickets =
        cbs::sla::evaluate_tickets(outcomes, scenario.ticket_policy);
    const double tickets_s = tracer.end(span);
    span = tracer.begin("sla.orderliness");
    static_cast<void>(cbs::sla::compute_orderliness(outcomes, 120.0));
    const double orderliness_s = tracer.end(span);
    if (out.error.empty() && (report.oo_final_mb != result.report.oo_final_mb ||
                              tickets.hit_rate != result.tickets.hit_rate)) {
      out.error = "the SLA replay disagrees with result()";
    }

    // The world's own QRSM, when it has one, counts the online observations
    // it made; each refit_interval of them triggers one refit. The replay
    // times that call stream, so it must make as many observations.
    std::size_t qrsm_refits = 0;
    QrsmReplay qrsm;
    if (const auto* est = dynamic_cast<const cbs::models::QrsmEstimator*>(
            &ctl.service_estimator())) {
      const std::size_t observed =
          est->model().observations() - scenario.pretrain_samples;
      qrsm_refits = observed / cbs::models::QrsmModel::Config{}.refit_interval;
      qrsm = replay_qrsm(scenario, batches, outcomes, tracer);
      if (out.error.empty() && observed != outcomes.size()) {
        out.error = "the world's QRSM made " + std::to_string(observed) +
                    " observations, the replay " +
                    std::to_string(outcomes.size());
      }
    }

    // The workload draw, with the world's config and RNG substreams.
    const cbs::sim::RngStream root(scenario.seed);
    cbs::workload::GroundTruthModel truth(scenario.truth,
                                          root.substream("truth"));
    cbs::workload::WorkloadGenerator::Config gen_cfg;
    gen_cfg.bucket = scenario.bucket;
    cbs::workload::WorkloadGenerator generator(gen_cfg, truth,
                                               root.substream("workload"));
    cbs::workload::BatchArrivalProcess::Config arr_cfg;
    arr_cfg.batch_interval = scenario.batch_interval_seconds;
    arr_cfg.mean_jobs_per_batch = scenario.mean_jobs_per_batch;
    arr_cfg.num_batches = scenario.num_batches;
    cbs::workload::BatchArrivalProcess arrivals(arr_cfg, generator,
                                                root.substream("arrivals"));
    span = tracer.begin("workload.generate");
    const std::vector<Batch> drawn = arrivals.generate_all();
    const double generate_s = tracer.end(span);
    std::size_t documents = 0;
    for (const Batch& b : batches) documents += b.documents.size();
    if (out.error.empty() && sorted_doc_ids(drawn) != sorted_doc_ids(batches)) {
      out.error = "the workload replay drew other documents than the world";
    }

    const auto ec_completed = std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const JobOutcome& o) { return o.bursted(); });
    const auto retractions = static_cast<double>(ctl.retractions());
    const double bursts = static_cast<double>(ec_completed) + retractions;
    const double candidates = static_cast<double>(la_cfg.candidates);
    const double forks =
        static_cast<double>(world->lookahead_choices().size()) * candidates;
    const double fork_mean_s = probes == 0 ? 0.0 : fork_s / probes;
    const double decide_mean_s = probes == 0 ? 0.0 : decide_s / probes;
    const std::size_t tenth = std::max<std::size_t>(1, n / 10);
    const double first = mean_of(slice_s, 0, std::min(tenth, n));
    const double last = mean_of(slice_s, n - std::min(tenth, n), n);
    const double events = static_cast<double>(result.events_processed);

    out.metrics = {
        {"models.qrsm_observe_s", qrsm.observe_s},
        {"models.qrsm_refits", static_cast<double>(qrsm_refits)},
        {"models.qrsm_refit_ms",
         qrsm.refits == 0
             ? 0.0
             : 1.0e3 * qrsm.refit_s / static_cast<double>(qrsm.refits)},
        {"models.qrsm_predict_ns", qrsm.predict_ns},
        {"models.pretrain_fit_s", qrsm.pretrain_fit_s},
        {"harness.forks", forks},
        {"harness.fork_us", 1.0e6 * fork_mean_s},
        {"harness.decide_ms", 1.0e3 * decide_mean_s},
        {"harness.fork_share",
         decide_mean_s == 0.0 ? 0.0
                              : candidates * fork_mean_s / decide_mean_s},
        {"harness.slice_growth", first == 0.0 ? 0.0 : last / first},
        {"harness.result_s", result_s},
        {"sla.oo_series_s", oo_series_s},
        {"sla.report_s", report_s},
        {"sla.tickets_s", tickets_s},
        {"sla.orderliness_s", orderliness_s},
        {"sla.oo_samples", static_cast<double>(series.size())},
        {"sla.jobs", static_cast<double>(outcomes.size())},
        {"simcore.events", events},
        {"simcore.ns_per_event", events == 0.0 ? 0.0 : run_s * 1.0e9 / events},
        {"core.bursts", bursts},
        {"core.retractions", retractions},
        {"core.burst_success_ratio",
         bursts == 0.0 ? 0.0 : static_cast<double>(ec_completed) / bursts},
        {"core.pull_backs", static_cast<double>(ctl.pull_backs())},
        {"net.up_mb", ctl.uplink().total_bytes_delivered() / 1.0e6},
        {"net.down_mb", ctl.downlink().total_bytes_delivered() / 1.0e6},
        {"net.wasted_mb",
         (ctl.uplink().wasted_bytes() + ctl.downlink().wasted_bytes()) / 1.0e6},
        {"net.outage_aborts",
         static_cast<double>(ctl.uplink().outage_aborts() +
                             ctl.downlink().outage_aborts())},
        {"compute.ic_util", result.report.ic_utilization},
        {"compute.ec_util", result.report.ec_utilization},
        {"compute.reexecutions",
         static_cast<double>(result.faults.reexecutions)},
        {"compute.wasted_s", result.faults.wasted_compute_seconds},
        {"compute.store_peak_mb", result.peak_store_bytes / 1.0e6},
        {"workload.generate_s", generate_s},
        {"workload.jobs", static_cast<double>(documents)},
        {"sim.ticket_hit_rate", result.tickets.hit_rate},
        {"sim.p95_lateness_s", result.tickets.p95_lateness},
        {"run.unattributed_s", run_s - qrsm.observe_s},
    };
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.spans = tracer.take();
  return out;
}

}  // namespace perfbench
