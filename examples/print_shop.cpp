// A production print shop's day: document batches arrive through a
// business day over a diurnal Internet pipe; the Order Preserving burst
// scheduler with elastic EC scaling keeps the plant's SLAs. Demonstrates
// the full autonomic loop at day scale: time-of-day bandwidth learning,
// thread tuning, QRSM adaptation and pay-as-you-go EC capacity.
#include <cstdio>

#include "core/controller.hpp"
#include "harness/scenario.hpp"
#include "simcore/closure_events.hpp"
#include "simcore/simulation.hpp"
#include "stats/distributions.hpp"
#include "sla/metrics.hpp"
#include "sla/oo_metric.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace cbs;
  sim::Simulation simulation;
  sim::RngStream root(2026);
  workload::GroundTruthModel truth({}, root.substream("truth"));

  core::ControllerConfig cfg = core::default_controller_config(false);
  cfg.scheduler = core::SchedulerKind::kOrderPreserving;
  cfg.elastic_ec.enabled = true;
  cfg.elastic_ec.min_machines = 1;
  cfg.elastic_ec.max_machines = 6;
  core::CloudBurstController controller(simulation, cfg, truth,
                                        root.substream("system"));

  // Factory prior for the QRSM.
  workload::WorkloadGenerator corpus_gen({}, truth, root.substream("corpus"));
  {
    const auto docs = corpus_gen.batch(150);
    std::vector<double> runtimes;
    for (const auto& d : docs) runtimes.push_back(truth.sample_seconds(d.features));
    controller.pretrain(docs, runtimes);
  }

  // The day: a morning statement run (small bucket), a mid-day marketing
  // surge (large bucket), an afternoon mixed load (uniform). Batches every
  // 3 minutes within each shift.
  struct Shift {
    const char* name;
    double start_hour;
    std::size_t batches;
    workload::SizeBucket bucket;
  };
  const Shift shifts[] = {
      {"morning statements", 8.0, 5, workload::SizeBucket::kSmallBiased},
      {"mid-day marketing surge", 11.0, 6, workload::SizeBucket::kLargeBiased},
      {"afternoon mixed", 15.0, 5, workload::SizeBucket::kUniform},
  };

  sim::ClosureEvents events(simulation);
  std::size_t batch_counter = 0;
  for (const Shift& shift : shifts) {
    workload::WorkloadGenerator::Config gen_cfg;
    gen_cfg.bucket = shift.bucket;
    auto gen = std::make_shared<workload::WorkloadGenerator>(
        gen_cfg, truth, root.substream(shift.name));
    auto rng = std::make_shared<sim::RngStream>(
        root.substream(shift.name).substream("arrivals"));
    for (std::size_t b = 0; b < shift.batches; ++b) {
      const double at = shift.start_hour * sim::kHour + 180.0 * static_cast<double>(b);
      const std::size_t index = batch_counter++;
      events.at(at, [&controller, gen, rng, index, at] {
        workload::Batch batch;
        batch.batch_index = index;
        batch.arrival_time = at;
        auto n = cbs::stats::sample_poisson(*rng, 15.0);
        if (n == 0) n = 1;
        batch.documents = gen->batch(n);
        controller.on_batch(batch);
      });
    }
  }

  simulation.run();

  const auto outcomes = controller.outcomes().to_vector();
  std::printf("=== print shop day complete ===\n");
  std::printf("jobs: %zu   makespan window: %.1f h   burst ratio: %.2f\n",
              outcomes.size(), sla::makespan(outcomes) / sim::kHour,
              sla::burst_ratio(outcomes));
  std::printf("EC scaling: %zu ups, %zu downs; paid %.1f machine-hours on EC "
              "(static 2-VM would pay %.1f)\n",
              controller.scale_ups(), controller.scale_downs(),
              controller.ec_cluster().provisioned_machine_seconds() / sim::kHour,
              2.0 * simulation.now() / sim::kHour);
  std::printf("rescheduler: %zu pull-backs, %zu push-outs\n",
              controller.pull_backs(), controller.push_outs());

  // Per-shift turnaround.
  std::printf("\n%-26s %8s %12s %10s\n", "shift", "jobs", "turnaround", "bursted");
  std::size_t shift_starts[] = {0, 5, 11, 16};
  const char* names[] = {"morning statements", "mid-day marketing surge",
                         "afternoon mixed"};
  for (int s = 0; s < 3; ++s) {
    double turnaround = 0.0;
    std::size_t jobs = 0;
    std::size_t bursted = 0;
    for (const auto& o : outcomes) {
      if (o.batch_index >= shift_starts[s] && o.batch_index < shift_starts[s + 1]) {
        turnaround += o.completed - o.arrival;
        ++jobs;
        if (o.bursted()) ++bursted;
      }
    }
    std::printf("%-26s %8zu %11.1fs %10zu\n", names[s], jobs,
                jobs ? turnaround / static_cast<double>(jobs) : 0.0, bursted);
  }

  // What the autonomic layer learned about the pipe.
  std::printf("\nlearned uplink rate by hour (KB/s):\n  ");
  const auto& est = controller.uplink_estimator();
  for (std::size_t h = 8; h <= 18; ++h) {
    std::printf("%zuh:%.0f  ", h,
                est.slot_estimate(h * est.slots_per_day() / 24) / 1e3);
  }
  std::printf("\n");
  return 0;
}
