// Watch the Fig. 5 pipeline at work: run a small batch with stage logging
// enabled and print each bursted job's journey through the asynchronous
// queue network — schedule, upload queue, EC execution, download, result —
// next to an internal job's straight path.
#include <cstdio>
#include <map>
#include <vector>

#include "core/controller.hpp"
#include "harness/world.hpp"

int main() {
  using namespace cbs;
  harness::Scenario scenario;
  scenario.seed = 4711;
  scenario.scheduler = core::SchedulerKind::kGreedy;
  scenario.num_batches = 1;
  scenario.mean_jobs_per_batch = 10.0;
  scenario.pretrain_samples = 150;
  scenario.record_stage_log = true;
  scenario.topology.ic_machines = 2;  // small IC so jobs burst readily

  harness::ScenarioWorld world(scenario);
  world.run();
  const core::CloudBurstController& controller = world.controller();

  // Group the stage log per job.
  std::map<std::uint64_t, std::vector<core::CloudBurstController::StageEvent>>
      per_job;
  for (const auto& e : controller.stage_log()) {
    per_job[e.seq_id].push_back(e);
  }

  std::printf("=== pipeline trace (Fig. 5): one batch, %zu jobs ===\n\n",
              per_job.size());
  for (const auto& o : controller.outcomes()) {
    std::printf("job %2llu  %-3s  %6.1f MB in / %6.1f MB out\n",
                static_cast<unsigned long long>(o.seq_id),
                std::string(sla::to_string(o.placement)).c_str(), o.input_mb,
                o.output_mb);
    for (const auto& e : per_job[o.seq_id]) {
      std::printf("    t=%8.1fs  %s\n", e.time,
                  std::string(core::to_string(e.state)).c_str());
    }
  }

  std::printf(
      "\nreading the trace: internal jobs go ic-waiting -> ic-running ->\n"
      "completed; bursted jobs go upload-queued -> ec-running (upload done,\n"
      "staged in the store) -> downloading -> completed. Stages of different\n"
      "jobs interleave freely — that is the pipelining the paper's\n"
      "architecture buys.\n");
  return 0;
}
