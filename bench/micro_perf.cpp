// Micro-benchmarks of the hot paths: event engine, link allocation, QRSM
// fit/predict, OO metric computation, full scenario throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/belief_state.hpp"
#include "core/controller.hpp"
#include "core/scheduler.hpp"
#include "harness/experiment.hpp"
#include "models/estimator.hpp"
#include "models/hazard.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "models/qrsm.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "simcore/simulation.hpp"
#include "sla/metrics.hpp"
#include "workload/arrival.hpp"
#include "workload/chunker.hpp"
#include "sla/oo_metric.hpp"
#include "util/seq_table.hpp"
#include "workload/generator.hpp"

namespace {

/// The engine benchmarks' event target: counts what it receives, the way a
/// simulation component handles its events.
class CountingTarget final : public cbs::sim::EventTarget {
 public:
  explicit CountingTarget(cbs::sim::Simulation& sim)
      : id(sim.register_target(*this)) {}
  void on_event(std::uint32_t /*kind*/, std::uint64_t arg) override {
    sum += arg;
  }
  cbs::sim::TargetId id;
  std::uint64_t sum = 0;
};

void BM_EventEngineThroughput(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cbs::sim::Simulation sim;
    CountingTarget target(sim);
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), {target.id, 0, 1});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventEngineThroughput)->Arg(1000)->Arg(10000);

void BM_EventCancelChurn(benchmark::State& state) {
  // The burst-retraction pattern: most scheduled events are cancelled
  // before firing. Exercises the event engine's in-place cancellation.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cbs::sim::Simulation sim;
    CountingTarget target(sim);
    std::vector<cbs::sim::EventId> doomed;
    doomed.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double t = static_cast<double>(i % 97) + 1.0;
      if (i % 8 == 0) {
        sim.schedule_at(t, {target.id, 0, 1});
      } else {
        doomed.push_back(sim.schedule_at(t, {target.id, 0, 1}));
      }
      if (doomed.size() >= 32) {
        for (const auto id : doomed) sim.cancel(id);
        doomed.clear();
      }
    }
    for (const auto id : doomed) sim.cancel(id);
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventCancelChurn)->Arg(1000)->Arg(10000);

void BM_EventRearm(benchmark::State& state) {
  // The link's completion timer (Link::flush): `n` other events pending,
  // and one timer moved to a fresh completion time on every step.
  const auto n = static_cast<int>(state.range(0));
  cbs::sim::Simulation sim;
  CountingTarget target(sim);
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(static_cast<double>(i % 97) + 1.0, {target.id, 0, 1});
  }
  const cbs::sim::EventId timer = sim.schedule_at(0.5, {target.id, 1, 0});
  std::uint64_t step = 0;
  for (auto _ : state) {
    const double t = static_cast<double>(++step * 37 % 97) + 0.5;
    benchmark::DoNotOptimize(sim.reschedule(timer, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventRearm)->Arg(16)->Arg(128)->Arg(1024);

/// The belief rows' EC site of `machines` speed-1 machines, and the
/// one-slot 1 MB/s pipe of the first two.
cbs::core::EcSiteConfig ec_site(std::size_t machines, double overhead_seconds) {
  cbs::core::EcSiteConfig site;
  site.machines = machines;
  site.job_overhead_seconds = overhead_seconds;
  return site;
}
constexpr cbs::net::BandwidthEstimator::Config kOneSlotPipe{
    .slots_per_day = 1, .prior_rate = 1.0e6};

void BM_SlackMaintenance(benchmark::State& state) {
  // Eq. 1's cushion under commit/complete churn with `n` jobs outstanding.
  // The pre-optimization slack() rescanned all outstanding jobs on every
  // call; the incremental structure makes this flat in n.
  const auto n = static_cast<std::size_t>(state.range(0));
  cbs::sim::RngStream rng(11);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  cbs::core::BeliefState belief(
      std::make_unique<cbs::models::OracleEstimator>(truth), 50);
  belief.add_ec_site(ec_site(50, 0.0), kOneSlotPipe);
  std::vector<cbs::workload::Document> docs;
  for (std::size_t i = 0; i < n; ++i) docs.push_back(gen.next());
  std::uint64_t seq = 1;
  double now = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double service = belief.estimate_service(docs[i]);
    belief.commit_ec(seq++, docs[i], service,
                     belief.ft_ec(docs[i], service, now));
  }
  std::size_t oldest = 1;
  std::size_t i = 0;
  for (auto _ : state) {
    // Steady-state churn: complete the oldest, commit a replacement, read
    // the slack — the per-batch pattern of Algorithm 1/2.
    now += 1.0;
    belief.on_ec_complete(oldest++);
    const auto& doc = docs[i++ % docs.size()];
    const double service = belief.estimate_service(doc);
    belief.commit_ec(seq++, doc, service, belief.ft_ec(doc, service, now));
    benchmark::DoNotOptimize(belief.slack(now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlackMaintenance)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BatchAdmission(benchmark::State& state) {
  // Algorithm 2 over a whole batch: every job consults slack() before
  // admission, so batch cost was quadratic in outstanding jobs before the
  // incremental structure.
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  cbs::sim::RngStream rng(13);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::Document> batch;
  for (std::size_t i = 0; i < batch_size; ++i) batch.push_back(gen.next());
  cbs::core::SchedulerParams params;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh belief per iteration so committed state does not accumulate
    // across iterations; seeded with a backlog so jobs are burst-eligible.
    cbs::core::BeliefState belief(
        std::make_unique<cbs::models::OracleEstimator>(truth), 4);
    belief.add_ec_site(ec_site(50, 0.0), kOneSlotPipe);
    belief.commit_ic(0, 40000.0);  // a job ahead of the batch
    std::uint64_t next_seq = 1;
    std::uint64_t next_doc_id = 1ULL << 40;
    cbs::core::SchedulerState scheduler_state;
    cbs::core::ScheduleContext ctx{
        .now = 0.0,
        .belief = belief,
        .params = params,
        .truth = truth,
        .next_seq = &next_seq,
        .next_doc_id = &next_doc_id,
        .ic_machines = 4,
        .upload_class_backlog_bytes = {0.0, 0.0, 0.0},
        .download_backlog_bytes = {0.0},
    };
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        cbs::core::schedule_batch(cbs::core::SchedulerKind::kOrderPreserving,
                                  batch, ctx, scheduler_state));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_BatchAdmission)->Arg(64)->Arg(256)->Arg(1024);

void BM_BatchAdmissionRolloutState(benchmark::State& state) {
  // Algorithm 2 over one batch in the state a lookahead rollout admits
  // into on lookahead_fork's overload: 15 uniform-bucket documents, the
  // default 48-slot estimators after a day of observations, 200 bursts
  // still queued for upload and an IC drain ten minutes past their
  // believed finish. The first jobs fit the cushion and the rest miss it,
  // which is the pricing order-preserving admission skips. The rows above
  // use 1-slot estimators and an empty backlog, so they never pay it.
  cbs::sim::RngStream rng(17);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  constexpr std::size_t kIcMachines = 8;
  cbs::core::BeliefState base(
      std::make_unique<cbs::models::OracleEstimator>(truth), kIcMachines);
  base.add_ec_site(ec_site(2, 30.0), cbs::net::BandwidthEstimator::Config{});
  for (int k = 0; k < 96; ++k) {
    const double t = 900.0 * k;
    const double rate = 1.0e6 * (1.0 + 0.5 * std::sin(t / 86400.0 * 6.283));
    base.uplink(0).observe(t, rate);
    base.downlink(0).observe(t, 2.0 * rate);
  }
  const double now = 86400.0 + 9.0 * 3600.0;
  std::uint64_t seq = 1;
  for (int i = 0; i < 200; ++i) {
    const auto doc = gen.next();
    const double service = base.estimate_service(doc);
    base.commit_ec(seq++, doc, service, base.ft_ec(doc, service, now));
  }
  base.commit_ic(seq++, (base.slack(now) - now + 600.0) *
                            static_cast<double>(kIcMachines));
  std::vector<cbs::workload::Document> batch;
  for (int i = 0; i < 15; ++i) batch.push_back(gen.next());
  const cbs::core::SchedulerParams params;
  cbs::core::SchedulerState scheduler_state;
  for (auto _ : state) {
    state.PauseTiming();
    cbs::core::BeliefState belief(base);
    std::uint64_t next_seq = seq;
    std::uint64_t next_doc_id = 1ULL << 40;
    cbs::core::ScheduleContext ctx{
        .now = now,
        .belief = belief,
        .params = params,
        .truth = truth,
        .next_seq = &next_seq,
        .next_doc_id = &next_doc_id,
        .ic_machines = kIcMachines,
        .upload_class_backlog_bytes = {},
        .download_backlog_bytes = {},
    };
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        cbs::core::schedule_batch(cbs::core::SchedulerKind::kOrderPreserving,
                                  batch, ctx, scheduler_state));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_BatchAdmissionRolloutState)->Name("BM_BatchAdmission/rollout");

void BM_QrsmFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cbs::sim::RngStream rng(7);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::DocumentFeatures> feats;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    auto doc = gen.next();
    feats.push_back(doc.features);
    y.push_back(truth.expected_seconds(doc.features));
  }
  for (auto _ : state) {
    cbs::models::QrsmModel model;
    model.fit(feats, y);
    benchmark::DoNotOptimize(model.is_fitted());
  }
}
BENCHMARK(BM_QrsmFit)->Arg(128)->Arg(512);

void BM_QrsmObserveFullWindow(benchmark::State& state) {
  // The online loop at its default size: a full 4096-row window takes 4096
  // more observations, so every one evicts a row and 128 refits run.
  constexpr std::size_t kWindow = 4096;
  cbs::sim::RngStream rng(7);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::DocumentFeatures> feats;
  std::vector<double> y;
  for (std::size_t i = 0; i < 2 * kWindow; ++i) {
    feats.push_back(gen.next().features);
    y.push_back(truth.sample_seconds(feats.back()));
  }
  const std::vector<cbs::workload::DocumentFeatures> prior(
      feats.begin(), feats.begin() + kWindow);
  const std::vector<double> prior_y(y.begin(), y.begin() + kWindow);
  for (auto _ : state) {
    state.PauseTiming();
    cbs::models::QrsmModel model;
    model.fit(prior, prior_y);
    state.ResumeTiming();
    for (std::size_t i = kWindow; i < 2 * kWindow; ++i) {
      model.observe(feats[i], y[i]);
    }
    benchmark::DoNotOptimize(model.last_fit()->r_squared);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_QrsmObserveFullWindow)->Unit(benchmark::kMillisecond);

void BM_QrsmRefit(benchmark::State& state) {
  // One refit on a full 4096-row window: the moments are already built,
  // so this is the change of basis plus the 45×45 Cholesky solve.
  constexpr std::size_t kWindow = 4096;
  cbs::sim::RngStream rng(7);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::DocumentFeatures> feats;
  std::vector<double> y;
  for (std::size_t i = 0; i < kWindow; ++i) {
    feats.push_back(gen.next().features);
    y.push_back(truth.sample_seconds(feats.back()));
  }
  cbs::models::QrsmModel model;
  model.fit(feats, y);
  for (auto _ : state) {
    model.refit();
    benchmark::DoNotOptimize(model.is_fitted());
  }
}
BENCHMARK(BM_QrsmRefit);

void BM_QrsmPredict(benchmark::State& state) {
  cbs::sim::RngStream rng(7);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::WorkloadGenerator gen({}, truth, rng.substream("g"));
  std::vector<cbs::workload::DocumentFeatures> feats;
  std::vector<double> y;
  for (std::size_t i = 0; i < 256; ++i) {
    auto doc = gen.next();
    feats.push_back(doc.features);
    y.push_back(truth.expected_seconds(doc.features));
  }
  cbs::models::QrsmModel model;
  model.fit(feats, y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(feats[i++ % feats.size()]));
  }
}
BENCHMARK(BM_QrsmPredict);

void BM_OoMetricSeries(benchmark::State& state) {
  // Synthetic outcomes: n jobs completing in shuffled order.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<cbs::sla::JobOutcome> outcomes(n);
  cbs::sim::RngStream rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i].seq_id = i + 1;
    outcomes[i].completed = rng.uniform(0.0, 10000.0);
    outcomes[i].output_mb = rng.uniform(1.0, 300.0);
  }
  for (auto _ : state) {
    cbs::sla::OoMetricCalculator oo(outcomes);
    benchmark::DoNotOptimize(oo.series(120.0, 4));
  }
}
BENCHMARK(BM_OoMetricSeries)->Arg(100)->Arg(1000)->Arg(30000);

void BM_SeqTableFifoErase(benchmark::State& state) {
  // The belief table's life: n jobs admitted in sequence order, then
  // completed roughly first-in first-out; one completion in 16 overtakes up
  // to 63 older jobs.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i + 1;
  cbs::sim::RngStream rng(5);
  for (std::uint64_t i = 0; i + 1 < n; i += 16) {
    std::swap(order[i], order[std::min(n - 1, i + rng.uniform_int(1, 63))]);
  }
  for (auto _ : state) {
    cbs::util::SeqTable<double> table;
    for (std::uint64_t k = 1; k <= n; ++k) {
      table.insert(k, static_cast<double>(k));
    }
    for (const std::uint64_t k : order) table.erase(k);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeqTableFifoErase)->Arg(1000)->Arg(10000);

/// A link owner that ignores every completion and submits one transfer to
/// `link` per event it receives.
class StormDriver final : public cbs::net::LinkOwner,
                          public cbs::sim::EventTarget {
 public:
  void on_event(std::uint32_t, std::uint64_t) override {
    link->submit(1.0e5, 2, 0, 0);
  }
  void on_transfer_done(std::size_t, std::uint32_t, std::uint64_t,
                        const cbs::net::TransferRecord&) override {}

  cbs::net::Link* link = nullptr;
};

void BM_LinkAllocationStorm(benchmark::State& state) {
  // Water-filling reallocation cost under many concurrent transfers.
  const auto n = static_cast<int>(state.range(0));
  StormDriver driver;
  for (auto _ : state) {
    cbs::sim::Simulation sim;
    cbs::net::LinkConfig cfg;
    cfg.base_rate = 1.0e6;
    cfg.per_connection_cap = 0.1e6;
    cfg.noise_sigma = 0.0;
    cfg.setup_latency = 0.0;
    cbs::net::Link link(sim, driver, 0, cfg, cbs::sim::RngStream(1));
    driver.link = &link;
    const cbs::sim::TargetId target = sim.register_target(driver);
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i) * 0.1,
                      {target, 0, static_cast<std::uint64_t>(i)});
    }
    sim.run();
    benchmark::DoNotOptimize(link.total_bytes_delivered());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkAllocationStorm)->Arg(64)->Arg(256)->Arg(1024);

void BM_ChunkerSplit(benchmark::State& state) {
  cbs::sim::RngStream rng(9);
  cbs::workload::GroundTruthModel truth({}, rng.substream("t"));
  cbs::workload::PdfChunker chunker({.target_size_mb = 40.0});
  cbs::workload::Document doc;
  doc.doc_id = 1;
  doc.features.size_mb = 300.0;
  doc.features.pages = 250;
  doc.features.num_images = 120;
  std::uint64_t next_id = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(doc, truth, &next_id));
  }
}
BENCHMARK(BM_ChunkerSplit);

void BM_OrderlinessStats(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<cbs::sla::JobOutcome> outcomes(n);
  cbs::sim::RngStream rng(4);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i].seq_id = i + 1;
    outcomes[i].completed = rng.uniform(0.0, 10000.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbs::sla::compute_orderliness(outcomes, 120.0));
  }
}
BENCHMARK(BM_OrderlinessStats)->Arg(1000)->Arg(10000);

void BM_BandwidthEstimatorTransferSeconds(benchmark::State& state) {
  // The argument is the bytes to move: one job's upload (3e8, within a
  // slot or two), and about one and six days of this link's capacity
  // (~8.4e10 bytes a day), which is what a query pays under overload,
  // when the queue ahead of the job is priced too.
  const auto bytes = static_cast<double>(state.range(0));
  cbs::net::BandwidthEstimator est(
      {.slots_per_day = 48, .prior_rate = 1.0e6});
  for (int s = 0; s < 48; ++s) {
    est.observe(static_cast<double>(s) * 1800.0, 0.5e6 + 2.0e4 * s);
  }
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate_transfer_seconds(t, bytes));
    t += 137.0;
  }
}
BENCHMARK(BM_BandwidthEstimatorTransferSeconds)
    ->Arg(300000000)
    ->Arg(84000000000)
    ->Arg(500000000000);

void draw_workload(benchmark::State& state, cbs::workload::SizeBucket bucket) {
  // The §V.A draw a ScenarioWorld makes before it runs: greedy_faults_
  // overload's 2000 batches of λ = 15 documents (~30k), from the world's
  // substreams. It is almost all of the world's construction. The uniform
  // row is greedy_faults_overload's; the large row draws its sizes from
  // the bounded Pareto the small and large buckets share.
  const cbs::sim::RngStream root(1);
  const cbs::workload::GroundTruthModel truth({}, root.substream("truth"));
  for (auto _ : state) {
    cbs::workload::WorkloadGenerator generator(
        {.bucket = bucket}, truth, root.substream("workload"));
    cbs::workload::BatchArrivalProcess arrivals(
        {.batch_interval = 180.0,
         .mean_jobs_per_batch = 15.0,
         .num_batches = 2000},
        generator, root.substream("arrivals"));
    benchmark::DoNotOptimize(arrivals.generate_all());
  }
}
BENCHMARK_CAPTURE(draw_workload, uniform, cbs::workload::SizeBucket::kUniform)
    ->Name("BM_DrawWorkload")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(draw_workload, large, cbs::workload::SizeBucket::kLargeBiased)
    ->Name("BM_DrawWorkload/large")
    ->Unit(benchmark::kMillisecond);

void BM_FaultedScenario(benchmark::State& state) {
  // Full run with the fault layer hot: VM crashes on both clusters, EC
  // outage windows, and burst-retraction deadlines (the cancel-heavy path
  // the tombstoning engine exists for).
  for (auto _ : state) {
    auto scenario = cbs::harness::make_scenario(
        cbs::core::SchedulerKind::kOrderPreserving,
        cbs::workload::SizeBucket::kLargeBiased, 1337);
    scenario.num_batches = 2;
    scenario.faults.ec_vm_mtbf = 1200.0;
    scenario.faults.ic_vm_mtbf = 6000.0;
    scenario.faults.retraction_deadline_factor = 3.0;
    scenario.faults.outage_windows = {cbs::sim::OutageWindow{400.0, 240.0},
                                      cbs::sim::OutageWindow{1500.0, 180.0}};
    scenario.log_threshold = cbs::sim::LogLevel::kOff;  // keep stderr clean
    benchmark::DoNotOptimize(cbs::harness::run_scenario(scenario));
  }
}
BENCHMARK(BM_FaultedScenario)->Unit(benchmark::kMillisecond);

void BM_BurstRetraction(benchmark::State& state) {
  // The burst-retraction path on an overloaded controller: `n` jobs wait
  // for one IC machine, and 64 bursts of scattered sizes wait for a flat
  // 1 MB/s pipe. Every burst's round-trip deadline (a tenth of its
  // unloaded round trip) fires in the timed window, in an order unlike the
  // queue's, so most retractions cancel an upload from the middle of the
  // queue and re-admit the job to the IC at its seq position. Each
  // iteration forks the loaded controller outside the timing and runs the
  // window.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBursts = 64;
  constexpr double kWindowSeconds = 60.0;
  cbs::core::ControllerConfig cfg;
  cfg.scheduler = cbs::core::SchedulerKind::kGreedy;
  cfg.estimator = cbs::core::EstimatorKind::kOracle;
  cfg.probe_interval = 0.0;
  cfg.ic_machines = 1;
  cfg.faults.retraction_deadline_factor = 0.1;
  cbs::core::EcSiteConfig& ec = cfg.ec_sites[0];
  ec.uplink.base_rate = 1.0e6;
  ec.uplink.per_connection_cap = 1.0e6;
  ec.uplink.noise_sigma = 0.0;
  ec.uplink.setup_latency = 0.0;
  ec.downlink = ec.uplink;
  cfg.bandwidth_prior_rate = 1.0e6;
  cfg.params.variability_threshold_mb = 1e9;  // no chunking
  const cbs::workload::GroundTruthModel truth({.noise_sigma = 0.0},
                                              cbs::sim::RngStream(1));
  const auto batch = [](std::size_t index, std::uint64_t first_id,
                        std::size_t count, auto size_mb) {
    cbs::workload::Batch b;
    b.batch_index = index;
    for (std::size_t i = 0; i < count; ++i) {
      cbs::workload::Document d;
      d.doc_id = first_id + i;
      d.features.size_mb = size_mb(i);
      d.features.pages = static_cast<int>(d.features.size_mb);
      d.output_size_mb = d.features.size_mb;
      b.documents.push_back(d);
    }
    return b;
  };
  cbs::sim::Simulation sim;
  cbs::core::CloudBurstController loaded(sim, cfg, truth,
                                         cbs::sim::RngStream(2));
  loaded.on_batch(batch(0, 1, n, [](std::size_t) { return 300.0; }),
                  cbs::core::SchedulerKind::kIcOnly);
  loaded.on_batch(batch(1, n + 1, kBursts, [](std::size_t i) {
    return 10.0 + static_cast<double>((i * 37) % 64) * 2.0;
  }));
  std::int64_t retracted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fork_sim = std::make_unique<cbs::sim::Simulation>(sim);
    auto fork = std::make_unique<cbs::core::CloudBurstController>(*fork_sim,
                                                                  loaded);
    state.ResumeTiming();
    fork_sim->run_until(kWindowSeconds);
    state.PauseTiming();
    retracted += static_cast<std::int64_t>(fork->retractions());
    fork.reset();
    fork_sim.reset();
    state.ResumeTiming();
  }
  if (retracted != state.iterations() * std::int64_t{kBursts}) {
    state.SkipWithError("the deadlines did not retract the bursts");
  }
  state.SetItemsProcessed(retracted);
}
BENCHMARK(BM_BurstRetraction)->Arg(1000)->Arg(4000);

void BM_HazardUpdate(benchmark::State& state) {
  // The per-event cost of the resilience layer: a crash observation plus a
  // full settle + per-machine probability sweep (what update_resilience
  // pays at every fault event) over `n` machines.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kind = state.range(1) == 0
                        ? cbs::models::HazardPredictorKind::kEwma
                        : cbs::models::HazardPredictorKind::kBayes;
  cbs::models::HazardModelConfig cfg;
  cfg.kind = kind;
  cbs::models::VmHazardEstimator est(cfg, n);
  double now = 0.0;
  std::size_t m = 0;
  for (auto _ : state) {
    now += 37.0;
    est.on_failure(m++ % n, now);
    est.settle(now);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += est.failure_probability(i, now, 600.0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HazardUpdate)
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_SnapshotFork(benchmark::State& state) {
  // Cost of one deep fork of a live mid-run world (engine copy +
  // controller + every sub-component + target re-registration). The lookahead
  // policy pays this once per candidate per decision, so it must stay a
  // small fraction of the horizon roll it enables (BM_LookaheadDecision).
  auto scenario = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  scenario.num_batches = 4;
  cbs::harness::ScenarioWorld world(scenario);
  world.run_until(400.0);  // uploads, EC work and probes all in flight
  for (auto _ : state) {
    auto forked = world.fork();
    benchmark::DoNotOptimize(forked->now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotFork)->Unit(benchmark::kMicrosecond);

void BM_SnapshotForkMidRun(benchmark::State& state) {
  // BM_SnapshotFork deep into a long run: a 1000-batch OP world run to
  // batch 500 has ~13k finished jobs behind it. A fork copies only live
  // state and shares the finished history, so this row must stay close to
  // BM_SnapshotFork instead of growing with the jobs already done.
  auto scenario = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  scenario.num_batches = 1000;
  cbs::harness::ScenarioWorld world(scenario);
  world.run_until(world.batches()[500].arrival_time);
  for (auto _ : state) {
    auto forked = world.fork();
    benchmark::DoNotOptimize(forked->now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotForkMidRun)->Unit(benchmark::kMicrosecond);

void BM_LookaheadDecision(benchmark::State& state) {
  // One full model-predictive decision: fork the world once per candidate,
  // inject the batch, roll each fork 900 s forward and score it. The
  // rollouts run on the controller's pool, so the gated time is the whole
  // process's CPU (workers included), not the main thread's.
  auto scenario = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  scenario.num_batches = 4;
  cbs::harness::ScenarioWorld world(scenario);
  world.run_until(350.0);
  cbs::harness::LookaheadController::Config cfg;
  cfg.horizon_seconds = 900.0;
  cfg.candidates = 3;
  const cbs::harness::LookaheadController lookahead(cfg);
  const auto& batch = world.batches()[2];  // arrives at t=360, still pending
  for (auto _ : state) {
    benchmark::DoNotOptimize(lookahead.decide(world, batch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LookaheadDecision)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelPlan(benchmark::State& state) {
  // Scaling of the parallel experiment runner: a 6-cell plan (3 seeds x
  // 2 schedulers) at 1/2/4 worker threads. Near-linear scaling up to the
  // core count demonstrates the per-run reentrancy contract costs nothing.
  auto base = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 42);
  base.num_batches = 2;
  const auto plan = cbs::harness::ExperimentPlan::grid(
      {42, 7, 1337},
      {cbs::core::SchedulerKind::kGreedy,
       cbs::core::SchedulerKind::kOrderPreserving},
      {cbs::workload::SizeBucket::kUniform}, base);
  cbs::harness::RunnerOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto results = cbs::harness::run_plan(plan, opts);
    benchmark::DoNotOptimize(cbs::harness::failed_cells(results));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.cell_count()));
}
// Worker threads do the work here: time on the wall clock, and count CPU
// over the whole process so the gated cpu_time covers the workers too.
BENCHMARK(BM_ParallelPlan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
