// Reproducible experiments from workload traces: generate a workload, save
// it as CSV, reload it and run two schedulers against the identical trace.
// Usage: replay_trace [trace.csv]   (defaults to a temp path)
#include <cstdio>
#include <string>

#include "core/controller.hpp"
#include "simcore/closure_events.hpp"
#include "simcore/simulation.hpp"
#include "sla/metrics.hpp"
#include "sla/report.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

cbs::sla::SlaReport run_trace(const std::vector<cbs::workload::Batch>& batches,
                              cbs::core::SchedulerKind kind) {
  using namespace cbs;
  sim::Simulation simulation;
  sim::RngStream root(31337);
  workload::GroundTruthModel truth({}, root.substream("truth"));
  auto cfg = core::default_controller_config(false);
  cfg.scheduler = kind;
  core::CloudBurstController controller(simulation, cfg, truth,
                                        root.substream("system"));
  {
    workload::WorkloadGenerator corpus({}, truth, root.substream("corpus"));
    const auto docs = corpus.batch(150);
    std::vector<double> y;
    for (const auto& d : docs) y.push_back(truth.sample_seconds(d.features));
    controller.pretrain(docs, y);
  }
  sim::ClosureEvents events(simulation);
  for (const auto& batch : batches) {
    events.at(batch.arrival_time,
              [&controller, batch] { controller.on_batch(batch); });
  }
  simulation.run();
  return sla::build_report(
      std::string(core::to_string(kind)), "trace",
      controller.outcomes().to_vector(),
      controller.ic_cluster().total_busy_time(),
      controller.ic_cluster().machine_count(),
      controller.ec_cluster().total_busy_time(),
      controller.ec_cluster().machine_count(), 120.0, 4);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbs;
  const std::string path = argc > 1 ? argv[1] : "/tmp/cloudburst_trace.csv";

  // Generate a workload and persist it.
  sim::RngStream root(808);
  workload::GroundTruthModel truth({}, root.substream("truth"));
  workload::WorkloadGenerator::Config gen_cfg;
  gen_cfg.bucket = workload::SizeBucket::kUniform;
  workload::WorkloadGenerator gen(gen_cfg, truth, root.substream("gen"));
  workload::BatchArrivalProcess arrivals({.num_batches = 6}, gen,
                                         root.substream("arrivals"));
  const auto batches = arrivals.generate_all();
  const std::size_t rows = workload::trace::write_file(path, batches);
  std::printf("wrote %zu documents (%zu batches) to %s\n", rows,
              batches.size(), path.c_str());

  // Reload and verify the round trip.
  const auto reloaded = workload::trace::read_file(path);
  std::printf("reloaded %zu batches; first doc %.1f MB, %s\n\n",
              reloaded.size(), reloaded[0].documents[0].features.size_mb,
              std::string(
                  workload::to_string(reloaded[0].documents[0].features.type))
                  .c_str());

  // The same trace under two schedulers — a perfectly paired comparison.
  const auto greedy = run_trace(reloaded, core::SchedulerKind::kGreedy);
  const auto op = run_trace(reloaded, core::SchedulerKind::kOrderPreserving);
  std::printf("%s", sla::format_table({greedy, op}).c_str());
  std::printf("\nsame trace, same arrivals, same realized service times —\n"
              "any metric difference above is purely the scheduling policy.\n");
  return 0;
}
