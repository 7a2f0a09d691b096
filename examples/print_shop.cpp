// A production print shop's day: document batches arrive through a
// business day over a diurnal Internet pipe; the Order Preserving burst
// scheduler with elastic EC scaling keeps the plant's SLAs. Demonstrates
// the full autonomic loop at day scale: time-of-day bandwidth learning,
// thread tuning, QRSM adaptation and pay-as-you-go EC capacity.
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "simcore/rng.hpp"
#include "stats/distributions.hpp"
#include "sla/metrics.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace cbs;
  harness::Scenario scenario;
  scenario.name = "print shop day";
  scenario.seed = 2026;
  scenario.pretrain_samples = 150;  // the QRSM's factory prior
  scenario.elastic_ec = {.enabled = true, .max_machines = 6};

  // The generators only read output sizes off the truth model; the world
  // builds its own from the same substream.
  sim::RngStream root(scenario.seed);
  const workload::GroundTruthModel truth({}, root.substream("truth"));

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

  std::vector<workload::Batch> day;
  std::uint64_t doc_id = 0;
  for (const Shift& shift : shifts) {
    workload::WorkloadGenerator::Config gen_cfg;
    gen_cfg.bucket = shift.bucket;
    workload::WorkloadGenerator gen(gen_cfg, truth, root.substream(shift.name));
    sim::RngStream rng = root.substream(shift.name).substream("arrivals");
    for (std::size_t b = 0; b < shift.batches; ++b) {
      workload::Batch batch;
      batch.batch_index = day.size();
      batch.arrival_time =
          shift.start_hour * sim::kHour + 180.0 * static_cast<double>(b);
      auto n = stats::sample_poisson(rng, 15.0);
      if (n == 0) n = 1;
      batch.documents = gen.batch(n);
      // Each shift's generator counts ids from 1, and a document's service
      // noise is seeded by its id: renumber so no two share a draw.
      for (workload::Document& doc : batch.documents) doc.doc_id = ++doc_id;
      day.push_back(std::move(batch));
    }
  }

  harness::ScenarioWorld world(scenario, std::move(day));
  world.run();
  const harness::RunResult result = world.result();
  const core::CloudBurstController& controller = world.controller();

  const auto& outcomes = result.outcomes;
  std::printf("=== print shop day complete ===\n");
  std::printf("jobs: %zu   makespan window: %.1f h   burst ratio: %.2f\n",
              outcomes.size(), sla::makespan(outcomes) / sim::kHour,
              sla::burst_ratio(outcomes));
  std::printf("EC scaling: %zu ups, %zu downs; paid %.1f machine-hours on EC "
              "(static 2-VM would pay %.1f)\n",
              controller.scale_ups(), controller.scale_downs(),
              controller.ec_cluster().provisioned_machine_seconds() / sim::kHour,
              2.0 * world.now() / sim::kHour);
  std::printf("rescheduler: %zu pull-backs, %zu push-outs\n",
              result.pull_backs, result.push_outs);

  // Per-shift turnaround.
  std::printf("\n%-26s %8s %12s %10s\n", "shift", "jobs", "turnaround", "bursted");
  std::size_t first_batch = 0;
  for (const Shift& shift : shifts) {
    const std::size_t end_batch = first_batch + shift.batches;
    double turnaround = 0.0;
    std::size_t jobs = 0;
    std::size_t bursted = 0;
    for (const auto& o : outcomes) {
      if (o.batch_index >= first_batch && o.batch_index < end_batch) {
        turnaround += o.completed - o.arrival;
        ++jobs;
        if (o.bursted()) ++bursted;
      }
    }
    std::printf("%-26s %8zu %11.1fs %10zu\n", shift.name, jobs,
                jobs ? turnaround / static_cast<double>(jobs) : 0.0, bursted);
    first_batch = end_batch;
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
