// Reproducible experiments from workload traces: generate a workload, save
// it as CSV, reload it and run two schedulers against the identical trace.
// Usage: replay_trace [trace.csv]   (defaults to a temp path)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "sla/report.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

cbs::sla::SlaReport run_trace(std::vector<cbs::workload::Batch> batches,
                              cbs::core::SchedulerKind kind) {
  cbs::harness::Scenario scenario;
  scenario.seed = 31337;
  scenario.scheduler = kind;
  scenario.pretrain_samples = 150;
  cbs::harness::ScenarioWorld world(scenario, std::move(batches));
  world.run();
  return world.result().report;
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
